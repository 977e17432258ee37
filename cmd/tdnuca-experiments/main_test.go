package main

import (
	"testing"

	"tdnuca"
)

func TestSplitBenchPolicy(t *testing.T) {
	for _, c := range []struct {
		spec, bench string
		kind        tdnuca.PolicyKind
		err         bool
	}{
		{spec: "LU", bench: "LU"},
		{spec: "LU:S-NUCA", bench: "LU", kind: tdnuca.SNUCA},
		{spec: "gen:seed=3,depth=2", bench: "gen:seed=3,depth=2"},
		{spec: "gen:seed=3,depth=2:snuca", bench: "gen:seed=3,depth=2", kind: tdnuca.SNUCA},
		{spec: "LU:bogus", err: true},
	} {
		bench, kind, err := splitBenchPolicy(c.spec)
		if (err != nil) != c.err {
			t.Errorf("splitBenchPolicy(%q): err = %v, want error %v", c.spec, err, c.err)
			continue
		}
		if bench != c.bench || kind != c.kind {
			t.Errorf("splitBenchPolicy(%q) = %q, %q; want %q, %q", c.spec, bench, kind, c.bench, c.kind)
		}
	}
}
