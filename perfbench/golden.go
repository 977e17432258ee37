package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"tdnuca/internal/harness"
)

// runKey names one (benchmark, policy) run.
type runKey struct {
	Bench  string
	Policy harness.PolicyKind
}

// pinned is a run's expected makespan and behavioural digest.
type pinned struct {
	Cycles uint64
	Digest uint64
}

// parseGolden reads the golden digest format of
// internal/harness/testdata/golden_suite.txt (harness.SuiteDigest's
// String form): "bench<TAB>policy<TAB>cycles=N<TAB>digest=HEX" lines,
// '#' comments, and a closing "suite<TAB>digest=HEX" line, which is
// skipped because the per-run lines already pin everything it hashes.
func parseGolden(r io.Reader) (map[runKey]pinned, error) {
	out := make(map[runKey]pinned)
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "suite\t") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 4 || !strings.HasPrefix(f[2], "cycles=") || !strings.HasPrefix(f[3], "digest=") {
			return nil, fmt.Errorf("golden line %d: want bench, policy, cycles=, digest=: %q", n, line)
		}
		cycles, err := strconv.ParseUint(strings.TrimPrefix(f[2], "cycles="), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("golden line %d: %w", n, err)
		}
		digest, err := strconv.ParseUint(strings.TrimPrefix(f[3], "digest="), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("golden line %d: %w", n, err)
		}
		k := runKey{Bench: f[0], Policy: harness.PolicyKind(f[1])}
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("golden line %d: duplicate %s/%s", n, k.Bench, k.Policy)
		}
		out[k] = pinned{Cycles: cycles, Digest: digest}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("golden file holds no digest lines")
	}
	return out, nil
}
