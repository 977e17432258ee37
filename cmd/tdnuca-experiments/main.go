// Command tdnuca-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	tdnuca-experiments -all                # every table and figure
//	tdnuca-experiments -fig 8              # one figure (3, 8..15)
//	tdnuca-experiments -fig rrt            # Sec. V-E RRT latency sweep
//	tdnuca-experiments -fig occupancy      # Sec. V-E RRT occupancy
//	tdnuca-experiments -fig flush          # Sec. V-E flush overhead
//	tdnuca-experiments -fig rtoverhead     # Sec. V-E runtime overhead
//	tdnuca-experiments -factor 0.03125     # workload memory scale
//	tdnuca-experiments -check              # enable the coherence checker
//	tdnuca-experiments -all -workers 4     # cap the worker pool (0 = one per CPU)
//	tdnuca-experiments -digest             # print the suite's behavioral digest
//	tdnuca-experiments -fig cyclestack     # per-run cycle-stack decomposition
//	tdnuca-experiments -trace LU           # trace LU under TD-NUCA
//	tdnuca-experiments -trace LU:S-NUCA -trace-out lu.json -interval 5000
//	tdnuca-experiments -faults default     # degraded suite (seeded severity-3 faults)
//	tdnuca-experiments -faults bank=3@20000,link=1-2@50000,rrt=8@80000
//	tdnuca-experiments -fig resilience     # makespan/traffic vs fault severity
//	tdnuca-experiments -fig table1         # Table I, the simulated machine
//	tdnuca-experiments -bench LU:tdnuca    # one run, every metric it produced
//	tdnuca-experiments -bench LU           # LU under all five policies
//	tdnuca-experiments -bench gen:seed=3,depth=8,width=16 -mesh 8x8
//
// -bench NAME[:POLICY] runs one benchmark: a Table II name or a seeded
// generator workload ("gen:..." knobs, internal/workgen; knobs not named
// keep their defaults). Under a policy it prints the run's full report
// (cache, NoC, energy, TLB and policy-specific counters) and exits 1 on
// a coherence violation. Without one it runs all five policies on the
// worker pool and prints a comparison normalized to S-NUCA, checking
// that every policy issued the same access stream (equal access
// digests); with -digest the runs' behavioral digest follows. -mesh
// swaps the 4x4 machine for a generalized WxH mesh (scaled per-tile
// caches) and composes with every other mode.
//
// -faults runs every benchmark under S-NUCA, R-NUCA and TD-NUCA with the
// given fault scenario injected (DESIGN.md §11) and prints the per-run
// fault counters; "default" picks the seeded severity-3 ladder (one bank
// retired, one link dead, RRTs halved) from -fault-seed. With -digest the
// degraded suite's behavioral digest is printed instead of the healthy
// one. -fig resilience sweeps severities 0..3 and prints the makespan and
// NoC-traffic inflation of each policy relative to its healthy run.
//
// -trace runs one benchmark (NAME[:POLICY] as for -bench, default policy
// TD-NUCA) with the event tracer attached, writes a Perfetto-loadable
// Chrome trace (-trace-out, default trace.json) plus <out>.intervals.csv
// and <out>.intervals.json time series, validates the output, and prints
// the run's cycle stack.
//
// Runs fan out across a worker pool (one worker per CPU by default);
// results are bit-for-bit identical to -workers 1 because every run owns
// an independent machine and runtime.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"tdnuca"
	"tdnuca/internal/harness"
	"tdnuca/internal/profiling"
)

// prof is the active -cpuprofile/-memprofile session; exit routes every
// termination path through Stop so profiles are flushed before os.Exit.
var prof *profiling.Session

func stopProf() {
	if prof != nil {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "tdnuca-experiments:", err)
		}
		prof = nil
	}
}

func exit(code int) {
	stopProf()
	os.Exit(code)
}

func main() {
	var (
		fig     = flag.String("fig", "", "figure to regenerate: 3, 8..15, rrt, occupancy, flush, rtoverhead, ablation, clusters, resilience, table1, table2")
		all     = flag.Bool("all", false, "regenerate every table and figure")
		factor  = flag.Float64("factor", float64(tdnuca.DefaultWorkloadFactor), "workload memory factor (1.0 = Table II scale)")
		seed    = flag.Uint64("seed", 1, "deterministic seed")
		check   = flag.Bool("check", false, "enable the functional coherence checker (slower)")
		workers = flag.Int("workers", 0, "parallel simulation workers (0 = one per CPU, 1 = sequential)")
		digest  = flag.Bool("digest", false, "print the suite's behavioral digest (for regression comparison)")
		cpuprof = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof = flag.String("memprofile", "", "write an allocation profile to this file on exit")

		traceSpec = flag.String("trace", "", "trace one run: NAME[:POLICY] as for -bench (default policy TD-NUCA)")
		traceOut  = flag.String("trace-out", "trace.json", "Chrome trace output path for -trace")
		interval  = flag.Uint64("interval", 0, "interval sample length in cycles for -trace (0 = default)")

		faultSpec = flag.String("faults", "", "run the suite degraded: a fault scenario like bank=3@20000,link=1-2@50000,rrt=8@80000, or 'default' for the seeded severity-3 ladder")
		faultSeed = flag.Uint64("fault-seed", 1, "seed for generated fault scenarios (-faults default, -fig resilience)")

		benchSpec = flag.String("bench", "", "run one benchmark as NAME[:POLICY]; NAME is "+strings.Join(tdnuca.Benchmarks(), ", ")+
			" or a generated workload like gen:seed=3,depth=8,width=16 (schema in EXPERIMENTS.md); without POLICY, compare all five policies")
		mesh = flag.String("mesh", "", "override the mesh topology, e.g. 8x8 or 16x16 (scaled per-tile caches, corner memory controllers)")
	)
	flag.Parse()

	var perr error
	prof, perr = profiling.Start(*cpuprof, *memprof)
	if perr != nil {
		fmt.Fprintln(os.Stderr, "tdnuca-experiments:", perr)
		exit(1)
	}
	defer stopProf()

	cfg := tdnuca.DefaultExperimentConfig()
	cfg.Factor = tdnuca.WorkloadFactor(*factor)
	cfg.Seed = *seed
	cfg.Arch.CheckInvariants = *check

	if *mesh != "" {
		w, h, err := parseMesh(*mesh)
		fail(err)
		a := tdnuca.ScaledMeshConfig(w, h)
		a.NoCContention = cfg.Arch.NoCContention
		a.CheckInvariants = cfg.Arch.CheckInvariants
		cfg.Arch = a
		fail(cfg.Arch.Validate())
	}

	if *benchSpec != "" {
		runBench(cfg, *benchSpec, *workers, *digest)
		if !*all && *fig == "" && *traceSpec == "" && *faultSpec == "" {
			return
		}
	}

	if *traceSpec != "" {
		runTraced(cfg, *traceSpec, *traceOut, *interval)
		if !*all && *fig == "" && !*digest {
			return
		}
	}

	if *faultSpec != "" {
		runDegraded(cfg, *faultSpec, *faultSeed, *workers, *digest)
		if !*all && *fig == "" {
			return
		}
	}

	if !*all && *fig == "" && !*digest && *traceSpec == "" && *faultSpec == "" {
		flag.Usage()
		exit(2)
	}

	want := func(name string) bool { return *all || strings.EqualFold(*fig, name) }
	start := time.Now()

	if want("table1") {
		fmt.Println(tdnuca.TableI(cfg))
	}
	if want("table2") {
		tbl, err := tdnuca.TableII(cfg)
		fail(err)
		fmt.Println(tbl)
	}

	needSuite := *all || *digest
	for _, f := range []string{"3", "8", "9", "10", "11", "12", "13", "14", "15", "occupancy", "flush", "cyclestack"} {
		if strings.EqualFold(*fig, f) {
			needSuite = true
		}
	}
	var suite tdnuca.Suite
	if needSuite {
		kinds := []tdnuca.PolicyKind{tdnuca.SNUCA, tdnuca.RNUCA, tdnuca.TDNUCA}
		if *all || want("15") {
			kinds = append(kinds, tdnuca.TDBypassOnly)
		}
		n := *workers
		if n <= 0 {
			n = tdnuca.ExperimentWorkers()
		}
		fmt.Fprintf(os.Stderr, "running %d benchmarks x %d policies at factor %g on %d workers...\n",
			len(tdnuca.Benchmarks()), len(kinds), *factor, n)
		var err error
		suite, err = tdnuca.RunSuiteParallel(cfg, *workers, kinds...)
		fail(err)
		reportViolations(suite)
		if *digest {
			fmt.Print(tdnuca.DigestSuite(suite).String())
		}
	}

	type figEntry struct {
		name string
		gen  func(tdnuca.Suite) tdnuca.Table
	}
	for _, fe := range []figEntry{
		{"3", tdnuca.Fig3}, {"8", tdnuca.Fig8}, {"9", tdnuca.Fig9},
		{"10", tdnuca.Fig10}, {"11", tdnuca.Fig11}, {"12", tdnuca.Fig12},
		{"13", tdnuca.Fig13}, {"14", tdnuca.Fig14}, {"15", tdnuca.Fig15},
		{"occupancy", tdnuca.OccupancyTable}, {"flush", tdnuca.FlushOverheadTable},
		{"cyclestack", tdnuca.CycleStackTable},
	} {
		if want(fe.name) {
			fmt.Println(fe.gen(suite))
		}
	}

	if want("rrt") {
		tbl, err := tdnuca.RRTLatencySweep(cfg, []int{0, 1, 2, 3, 4})
		fail(err)
		fmt.Println(tbl)
	}
	if want("rtoverhead") {
		tbl, err := tdnuca.RuntimeOverheadTable(cfg)
		fail(err)
		fmt.Println(tbl)
	}
	if want("ablation") {
		tbl, err := tdnuca.AblationTable(cfg)
		fail(err)
		fmt.Println(tbl)
	}
	if want("clusters") {
		tbl, err := tdnuca.ClusterSweep(cfg, [][2]int{{1, 1}, {2, 2}, {4, 4}})
		fail(err)
		fmt.Println(tbl)
	}
	if want("resilience") {
		rep, err := tdnuca.ResilienceSweep(cfg, *faultSeed, 3, *workers,
			tdnuca.SNUCA, tdnuca.RNUCA, tdnuca.TDNUCA)
		fail(err)
		fmt.Println(rep)
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
}

// parseMesh decodes a "WxH" topology argument.
func parseMesh(s string) (int, int, error) {
	var w, h int
	if _, err := fmt.Sscanf(strings.ToLower(s), "%dx%d", &w, &h); err != nil || w < 1 || h < 1 {
		return 0, 0, fmt.Errorf("bad -mesh %q: want WxH, e.g. 8x8", s)
	}
	return w, h, nil
}

// splitBenchPolicy splits a NAME[:POLICY] argument at its last ':',
// where the suffix must be a policy; the ':' of a generated name's
// "gen:" prefix is not a separator. kind is "" when no policy is given.
func splitBenchPolicy(spec string) (bench string, kind tdnuca.PolicyKind, err error) {
	i := strings.LastIndexByte(spec, ':')
	if i < 0 || (tdnuca.IsGeneratedName(spec) && !tdnuca.IsGeneratedName(spec[:i])) {
		return spec, "", nil
	}
	kind, ok := harness.ParsePolicy(spec[i+1:])
	if !ok {
		return "", "", fmt.Errorf("unknown policy %q in %q", spec[i+1:], spec)
	}
	return spec[:i], kind, nil
}

// allPolicies is the -bench comparison's row order; S-NUCA first, as
// the speedup baseline.
var allPolicies = []tdnuca.PolicyKind{
	tdnuca.SNUCA, tdnuca.RNUCA, tdnuca.TDNUCA, tdnuca.TDBypassOnly, tdnuca.TDNoISA,
}

// runBench runs one benchmark under the named policy and prints the
// full report, or, without a policy, compares all five.
func runBench(cfg tdnuca.ExperimentConfig, spec string, workers int, digest bool) {
	bench, kind, err := splitBenchPolicy(spec)
	fail(err)
	if tdnuca.IsGeneratedName(bench) {
		p, err := tdnuca.ParseWorkloadName(bench)
		fail(err)
		bench = p.String()
	}
	if kind == "" {
		comparePolicies(cfg, bench, workers, digest)
		return
	}

	r, err := tdnuca.RunBenchmark(bench, kind, cfg)
	fail(err)
	m := r.Metrics
	fmt.Printf("%s under %s\n", r.Benchmark, r.Policy)
	fmt.Printf("  tasks               %d (avg %.0f KB of dependencies)\n", r.Tasks, r.AvgTaskKB)
	fmt.Printf("  makespan            %d cycles\n", r.Cycles)
	fmt.Printf("  accesses            %d (L1 hit %.1f%%)\n", m.Accesses,
		100*float64(m.L1Hits)/float64(m.L1Hits+m.L1Misses))
	fmt.Printf("  LLC                 %d accesses, hit ratio %.1f%%\n", m.LLCAccesses, 100*m.LLCHitRatio())
	fmt.Printf("  bypassed accesses   %d\n", m.BypassAccesses)
	fmt.Printf("  DRAM                %d reads, %d writes\n", m.DRAMReads, m.DRAMWrites)
	fmt.Printf("  NUCA distance       %.2f hops\n", m.NUCADistance())
	fmt.Printf("  NoC data movement   %d byte-hops over %d messages\n", r.DataMovement, r.NoCMessages)
	fmt.Printf("  energy              LLC %.1f uJ, NoC %.1f uJ, DRAM %.1f uJ, RRT %.1f uJ\n",
		r.Energy.LLC/1e3, r.Energy.NoC/1e3, r.Energy.DRAM/1e3, r.Energy.RRT/1e3)
	fmt.Printf("  TLB                 %d hits, %d misses\n", r.TLBHits, r.TLBMisses)
	fmt.Printf("  runtime overhead    creation %d cycles, hooks %d cycles\n", r.CreationCost, r.HookCost)
	if kind == tdnuca.TDNUCA || kind == tdnuca.TDBypassOnly {
		s := r.ManagerStats
		fmt.Printf("  TD-NUCA decisions   %d (bypass %d, local %d, cluster %d, reuse %d, untracked %d)\n",
			s.Decisions, s.Bypasses, s.LocalMappings, s.ClusterMappings, s.Reuses, s.Untracked)
		fmt.Printf("  TD-NUCA ISA         %d registers, %d invalidates, %d flushes (%d transition)\n",
			s.Registers, s.Invalidates, s.Flushes, s.TransitionFlushes)
		fmt.Printf("  RRT occupancy       avg %.2f, max %d entries (%d register failures)\n",
			r.RRTAvgOcc, r.RRTMaxOcc, r.RegisterFailures)
		c := r.TDClassification
		fmt.Printf("  classification      Out %d, In %d, Both %d, NotReused %d blocks\n",
			c.Out, c.In, c.Both, c.NotReused)
	}
	if kind == tdnuca.RNUCA {
		fmt.Printf("  R-NUCA classes      private %d, shared-RO %d, shared %d blocks\n",
			r.RNUCAPrivate, r.RNUCASharedRO, r.RNUCAShared)
	}
	for _, v := range r.Violations {
		fmt.Printf("  COHERENCE VIOLATION %s\n", v)
	}
	if len(r.Violations) > 0 {
		exit(1)
	}
}

// comparePolicies runs one benchmark under every policy on the worker
// pool and prints the head-to-head table, normalized to S-NUCA (plus
// the run digests with -digest). The access digest must agree across
// policies: placement never changes what the program touches.
func comparePolicies(cfg tdnuca.ExperimentConfig, bench string, workers int, digest bool) {
	jobs := make([]tdnuca.ExperimentJob, len(allPolicies))
	for i, k := range allPolicies {
		jobs[i] = tdnuca.ExperimentJob{Bench: bench, Kind: k, Cfg: cfg}
	}
	fmt.Fprintf(os.Stderr, "%s under %d policies on a %dx%d mesh...\n",
		bench, len(jobs), cfg.Arch.MeshWidth, cfg.Arch.MeshHeight)
	results, err := tdnuca.RunExperiments(jobs, workers)
	fail(err)

	base := results[0]
	tbl := tdnuca.Table{
		Title: fmt.Sprintf("%s: policy comparison (factor %g, seed %d)",
			bench, float64(cfg.Factor), cfg.Seed),
		Header: []string{"Policy", "Cycles", "Speedup", "LLC hit", "NUCA dist", "Byte-hops",
			"Tasks", "DRAM xfers", "Access digest", "Digest"},
	}
	violations := 0
	for i, r := range results {
		tbl.AddRow(string(allPolicies[i]),
			fmt.Sprintf("%d", r.Cycles),
			fmt.Sprintf("%.2fx", r.Speedup(base)),
			fmt.Sprintf("%.1f%%", 100*r.Metrics.LLCHitRatio()),
			fmt.Sprintf("%.2f", r.Metrics.NUCADistance()),
			fmt.Sprintf("%d", r.DataMovement),
			fmt.Sprintf("%d", r.Tasks),
			fmt.Sprintf("%d", r.Metrics.DRAMReads+r.Metrics.DRAMWrites),
			fmt.Sprintf("%016x", r.AccessDigest),
			fmt.Sprintf("%016x", r.Digest()))
		for _, v := range r.Violations {
			fmt.Fprintf(os.Stderr, "COHERENCE VIOLATION %s/%s: %s\n", bench, allPolicies[i], v)
			violations++
		}
	}
	fmt.Println(tbl)
	for _, r := range results[1:] {
		if r.AccessDigest != base.AccessDigest {
			fail(fmt.Errorf("access digest diverged across policies: %016x vs %016x",
				r.AccessDigest, base.AccessDigest))
		}
	}
	if digest {
		s := tdnuca.Suite{bench: map[tdnuca.PolicyKind]tdnuca.Result{}}
		for i, r := range results {
			s[bench][allPolicies[i]] = r
		}
		fmt.Print(tdnuca.DigestSuite(s).String())
	}
	if violations > 0 {
		exit(1)
	}
}

// runDegraded executes every benchmark under the core policies with the
// given fault scenario injected and prints the per-run fault accounting;
// with -digest, the degraded suite's behavioral digest follows.
func runDegraded(cfg tdnuca.ExperimentConfig, spec string, seed uint64, workers int, digest bool) {
	var sc *tdnuca.FaultScenario
	var err error
	if strings.EqualFold(spec, "default") {
		sc = tdnuca.DefaultFaults(&cfg.Arch, seed)
	} else {
		sc, err = tdnuca.ParseFaults(spec)
		fail(err)
	}
	kinds := []tdnuca.PolicyKind{tdnuca.SNUCA, tdnuca.RNUCA, tdnuca.TDNUCA}
	n := workers
	if n <= 0 {
		n = tdnuca.ExperimentWorkers()
	}
	fmt.Fprintf(os.Stderr, "degraded run [%s]: %d benchmarks x %d policies on %d workers...\n",
		sc, len(tdnuca.Benchmarks()), len(kinds), n)
	suite, err := tdnuca.RunDegradedSuite(cfg, sc, workers, kinds...)
	fail(err)

	fmt.Printf("Degraded suite under faults [%s]\n", sc)
	fmt.Printf("%-12s %-22s %14s %6s %6s %5s %13s %18s\n",
		"benchmark", "policy", "cycles", "banks", "links", "rrt", "fault-cycles", "digest")
	benches := make([]string, 0, len(suite))
	for bench := range suite {
		benches = append(benches, bench)
	}
	sort.Strings(benches)
	for _, bench := range benches {
		perPolicy := suite[bench]
		names := make([]string, 0, len(perPolicy))
		for kind := range perPolicy {
			names = append(names, string(kind))
		}
		sort.Strings(names)
		for _, name := range names {
			r := perPolicy[tdnuca.PolicyKind(name)]
			fmt.Printf("%-12s %-22s %14d %6d %6d %5d %13d %016x\n",
				bench, name, uint64(r.Cycles), r.BankRetirements, r.LinkFailures,
				r.RRTDegrades, uint64(r.FaultCycles), r.Digest())
			for _, v := range r.Violations {
				fmt.Fprintf(os.Stderr, "COHERENCE VIOLATION %s/%s: %s\n", bench, name, v)
			}
		}
	}
	if digest {
		fmt.Print(tdnuca.DigestDegradedSuite(suite).String())
	}
}

func reportViolations(s tdnuca.Suite) {
	benches := make([]string, 0, len(s))
	for bench := range s {
		benches = append(benches, bench)
	}
	sort.Strings(benches)
	for _, bench := range benches {
		perPolicy := s[bench]
		kinds := make([]string, 0, len(perPolicy))
		for kind := range perPolicy {
			kinds = append(kinds, string(kind))
		}
		sort.Strings(kinds)
		for _, kind := range kinds {
			for _, v := range perPolicy[tdnuca.PolicyKind(kind)].Violations {
				fmt.Fprintf(os.Stderr, "COHERENCE VIOLATION %s/%s: %s\n", bench, kind, v)
			}
		}
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdnuca-experiments:", err)
		exit(1)
	}
}
