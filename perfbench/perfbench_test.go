package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"tdnuca/internal/harness"
	"tdnuca/internal/serve"
)

// TestMain runs the tests from the repository root, where the benchmark
// itself runs and finds the golden files.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.1, 1}, {99.5, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if got := beyond(xs, 99); got != 1 {
		t.Errorf("beyond p99 of 1..100 = %d, want 1", got)
	}
	// With fewer than 100 samples p99 is the maximum: no sample lies
	// beyond it, which the environment line reports.
	if got, n := percentile([]float64{3, 1, 2}, 99), beyond([]float64{3, 1, 2}, 99); got != 3 || n != 0 {
		t.Errorf("p99 of 3 samples = %v with %d beyond, want 3 with 0", got, n)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty sample set must read 0")
	}
}

func TestParseGolden(t *testing.T) {
	f, err := os.Open(goldenSuitePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := parseGolden(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 24 {
		t.Fatalf("golden suite has %d runs, want 8 benchmarks x 3 policies", len(g))
	}
	if _, ok := g[runKey{"LU", harness.TDNUCA}]; !ok {
		t.Error("golden suite lacks LU under TD-NUCA")
	}
	pin, err := parseGolden(strings.NewReader(finegrainPinned))
	if err != nil || len(pin) != 3 {
		t.Fatalf("finegrain pins: %d entries, %v", len(pin), err)
	}
	for _, bad := range []string{
		"LU\tTD-NUCA\tcycles=1\n",
		"LU\tTD-NUCA\tcycles=x\tdigest=00\n",
		"LU\tTD-NUCA\tcycles=1\tdigest=zz\n",
		"LU\tTD-NUCA\tcycles=1\tdigest=01\nLU\tTD-NUCA\tcycles=1\tdigest=01\n",
		"# only a comment\nsuite\tdigest=00\n",
	} {
		if _, err := parseGolden(strings.NewReader(bad)); err == nil {
			t.Errorf("parseGolden accepted %q", bad)
		}
	}
}

// A result that differs from its pinned digest is a failed operation,
// counted against the operations attempted.
func TestTamperedDigestIsFailedOperation(t *testing.T) {
	plan, err := suite.plan(1, newTracer(false))
	if err != nil {
		t.Fatal(err)
	}
	var jobs []harness.Job
	for _, j := range plan.jobs {
		if j.Bench == "MD5" {
			jobs = append(jobs, j)
		}
	}
	seq := make([]harness.Result, len(jobs))
	errs := make([]error, len(jobs))
	for i, j := range jobs {
		seq[i], errs[i] = harness.Run(j.Bench, j.Kind, j.Cfg)
	}
	par := append([]harness.Result(nil), seq...)
	if failed, why := checkSim(jobs, seq, errs, par, nil, plan.want); failed != 0 {
		t.Fatalf("untampered runs: %d failed: %v", failed, why)
	}

	par[1].Metrics.LLCHits++
	if failed, _ := checkSim(jobs, seq, errs, par, nil, plan.want); failed != 1 {
		t.Errorf("tampered pool run: %d failed, want 1", failed)
	}
	// A tampered sequential run fails against its pin, and its pool twin
	// then fails for differing from it.
	par[1] = seq[1]
	seq[1].Cycles++
	if failed, _ := checkSim(jobs, seq, errs, par, nil, plan.want); failed != 2 {
		t.Errorf("tampered sequential run: %d failed, want 2", failed)
	}
	seq[1].Cycles--
	seq[2].AccessDigest++
	if failed, _ := checkSim(jobs, seq, errs, nil, nil, nil); failed != len(jobs) {
		t.Errorf("access digest divergence: %d failed, want the whole benchmark (%d)", failed, len(jobs))
	}

	// serve: every request answered with a payload whose digest differs
	// from the direct run of its spec fails.
	direct := []harness.Result{seq[0], seq[1]}
	payload := func(r harness.Result, digest string) []byte {
		b, err := json.Marshal(serve.ResultPayload{Digest: digest, Result: r})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	rp := &replay{payloads: map[int][]byte{
		0: payload(seq[0], fmt.Sprintf("%016x", seq[0].Digest())),
		1: payload(seq[1], fmt.Sprintf("%016x", seq[1].Digest()^1)),
	}}
	for _, spec := range []int{0, 1, 0, 1, 0} {
		rp.reqs = append(rp.reqs, request{spec: spec, total: time.Millisecond})
	}
	got := checkPayloads(rp, direct)
	if rp.failed != 2 {
		t.Errorf("tampered payload digest: %d failed requests, want 2: %v", rp.failed, rp.why)
	}
	if got[0].Cycles != seq[0].Cycles {
		t.Error("checkPayloads did not return the served results")
	}
}

func TestServePlan(t *testing.T) {
	a, err := planServe(7, newTracer(false))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := planServe(7, newTracer(false))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed built different plans")
	}
	c, _ := planServe(8, newTracer(false))
	if reflect.DeepEqual(a.specs, c.specs) {
		t.Fatal("different seeds built the same jobs")
	}
	seen := map[int]bool{}
	n := 0
	for _, s := range a.stream {
		n += len(s)
		for _, idx := range s {
			seen[idx] = true
		}
	}
	if n != serveRequests || len(seen) != len(a.specs) || len(a.specs) != 3*serveDAGs {
		t.Errorf("%d requests over %d of %d jobs, want %d over all", n, len(seen), len(a.specs), serveRequests)
	}
}

func TestFoldTop(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Duration: 2s, Total samples = 1.50s (75.00%)
Showing nodes accounting for 1.50s, 100% of 1.50s total
      flat  flat%   sum%        cum   cum%
     600ms 40.00% 40.00%      600ms 40.00%  tdnuca/internal/machine.(*dirTable).probe (inline)
     300ms 20.00% 60.00%      300ms 20.00%  tdnuca/internal/machine.(*Machine).AccessAt
     150ms 10.00% 70.00%      150ms 10.00%  net/http.(*conn).serve
     150ms 10.00% 80.00%      300ms 20.00%  tdnuca/internal/harness.runPoolCtx[go.shape.struct { Bench string }].func1
     150ms 10.00% 90.00%      150ms 10.00%  runtime.scanobject
         0     0% 90.00%      150ms 10.00%  runtime.gcBgMarkWorker
     150ms 10.00%   100%      150ms 10.00%  encoding/json.(*decodeState).object
`)
	p, err := foldTop(out)
	if err != nil {
		t.Fatal(err)
	}
	if p.total != 1500*time.Millisecond {
		t.Fatalf("total %v", p.total)
	}
	for pkg, want := range map[string]float64{
		"tdnuca/internal/machine": 60, "net/http": 10, "tdnuca/internal/harness": 10,
		"runtime": 10, "encoding/json": 10,
	} {
		if got := p.share(pkg); got != want {
			t.Errorf("share(%s) = %v, want %v", pkg, got, want)
		}
	}
	if p.gc != 150*time.Millisecond {
		t.Errorf("gc = %v, want the mark worker's cumulative 150ms", p.gc)
	}
}

// BENCHMARK.json is written from the metric tables; they must agree.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	strip := func(ms []metric) []metric {
		out := make([]metric, len(ms))
		for i, m := range ms {
			out[i] = metric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
		}
		return out
	}
	if !reflect.DeepEqual(got.EndToEnd, strip(endToEnd)) {
		t.Errorf("end_to_end in BENCHMARK.json differs from endToEnd:\n%+v\n%+v", got.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(got.PerLayer, strip(perLayer)) {
		t.Errorf("per_layer in BENCHMARK.json differs from perLayer")
	}
	var names []string
	for _, w := range got.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != "suite,finegrain,serve" {
		t.Errorf("workloads %v", names)
	}
	for _, m := range perLayer {
		if m.Moves == "" {
			t.Errorf("per-layer metric %s does not say what it moves", m.Name)
		}
	}
}
