package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"tdnuca/internal/harness"
	"tdnuca/internal/workgen"
	"tdnuca/internal/workloads"
)

// factor is the workload scale of every simulation the benchmark runs:
// the golden files' 1/128.
const factor = workloads.Factor(1.0 / 128)

// policies are the three configurations the paper compares.
var policies = []harness.PolicyKind{harness.SNUCA, harness.RNUCA, harness.TDNUCA}

// shortPolicy names a policy in metric names and span attributes.
func shortPolicy(k harness.PolicyKind) string {
	return strings.ToLower(strings.ReplaceAll(string(k), "-", ""))
}

// counters are the exact model counters of one pass, summed over its
// runs. A simulator-speed change must leave every one identical.
type counters struct {
	Accesses, Tasks, Cycles                       uint64
	L1Misses, LLCAccesses, LLCMisses, Bypass      uint64
	DRAM, Invalidations, FlushOps                 uint64
	NoCMessages, ByteHops, QueueCycles, TLBMisses uint64
	RRTLookups, RegisterFailures                  uint64
}

func (c *counters) add(r harness.Result) {
	m := r.Metrics
	c.Accesses += m.Accesses
	c.Tasks += uint64(r.Tasks)
	c.Cycles += uint64(r.Cycles)
	c.L1Misses += m.L1Misses
	c.LLCAccesses += m.LLCAccesses
	c.LLCMisses += m.LLCMisses
	c.Bypass += m.BypassAccesses
	c.DRAM += m.DRAMReads + m.DRAMWrites
	c.Invalidations += m.Invalidations
	c.FlushOps += m.FlushOps
	c.NoCMessages += r.NoCMessages
	c.ByteHops += r.DataMovement
	c.QueueCycles += uint64(r.Stack.NoCQueue)
	c.TLBMisses += r.TLBMisses
	c.RRTLookups += m.RRTLookups
	c.RegisterFailures += r.RegisterFailures
}

func sumCounters(rs []harness.Result) counters {
	var c counters
	for _, r := range rs {
		c.add(r)
	}
	return c
}

func (c counters) put(m map[string]float64) {
	for k, v := range map[string]uint64{
		"sim.accesses": c.Accesses, "sim.tasks": c.Tasks, "sim.cycles": c.Cycles,
		"machine.l1_misses": c.L1Misses, "machine.llc_accesses": c.LLCAccesses,
		"machine.llc_misses": c.LLCMisses, "machine.bypass_accesses": c.Bypass,
		"machine.dram_accesses": c.DRAM, "machine.invalidations": c.Invalidations,
		"machine.flush_ops": c.FlushOps, "noc.messages": c.NoCMessages,
		"noc.byte_hops": c.ByteHops, "noc.queue_cycles": c.QueueCycles,
		"vm.tlb_misses": c.TLBMisses, "core.rrt_lookups": c.RRTLookups,
		"core.register_failures": c.RegisterFailures,
	} {
		m[k] = float64(v)
	}
}

// modelMetrics are the simulated speed-ups over S-NUCA, as geometric
// means over the benchmarks present, and TD-NUCA's relative error
// against the paper's Fig. 8 average (measured here at 1/128 scale).
func modelMetrics(rs []harness.Result, m map[string]float64) {
	base := map[string]float64{}
	for _, r := range rs {
		if r.Policy == harness.SNUCA && r.Cycles > 0 {
			base[r.Benchmark] = float64(r.Cycles)
		}
	}
	geo := func(k harness.PolicyKind) float64 {
		var logSum float64
		n := 0
		for _, r := range rs {
			if b, ok := base[r.Benchmark]; ok && r.Policy == k && r.Cycles > 0 {
				logSum += math.Log(b / float64(r.Cycles))
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return math.Exp(logSum / float64(n))
	}
	td := geo(harness.TDNUCA)
	m["model.td_speedup_geomean"] = td
	m["model.r_speedup_geomean"] = geo(harness.RNUCA)
	m["model.td_speedup_paper_error"] = math.Abs(td-harness.Fig8PaperTDAvg) / harness.Fig8PaperTDAvg
}

// simPlan is what a simulation workload's set-up produces: the runs of
// one pass, their expected digests where the seed has pinned ones, the
// pool that runs the same jobs concurrently, and the work unit that
// ops_per_s counts.
type simPlan struct {
	jobs     []harness.Job
	want     map[runKey]pinned // nil: no digests are pinned for this seed
	pool     func(jobs []harness.Job) ([]harness.Result, error)
	poolName string // the exported function pool calls, for its span
	ops      func(c counters) uint64
}

// runPool times the pool pass, recording its span.
func (p simPlan) runPool(tr *tracer) ([]harness.Result, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	par, err := p.pool(p.jobs)
	return par, tr.record(p.poolName, "", 0, start, time.Now()), err
}

// simWorkload is a workload whose operations are harness runs.
type simWorkload struct {
	name string
	plan func(seed uint64, tr *tracer) (simPlan, error)
}

// goldenSuitePath is relative to the repository root, where the
// benchmark runs.
const goldenSuitePath = "internal/harness/testdata/golden_suite.txt"

// suite is the Table II suite under the three policies. Its golden
// config is seed 1; any other seed moves page placement.
var suite = simWorkload{name: "suite", plan: func(seed uint64, _ *tracer) (simPlan, error) {
	cfg := harness.DefaultConfig()
	cfg.Factor = factor
	cfg.Seed = seed
	p := simPlan{poolName: "harness.RunSuiteParallel", ops: func(c counters) uint64 { return c.Accesses }}
	for _, b := range workloads.Names() {
		for _, k := range policies {
			p.jobs = append(p.jobs, harness.Job{Bench: b, Kind: k, Cfg: cfg})
		}
	}
	if seed == 1 {
		f, err := os.Open(goldenSuitePath)
		if err != nil {
			return p, err
		}
		defer f.Close()
		if p.want, err = parseGolden(f); err != nil {
			return p, fmt.Errorf("%s: %w", goldenSuitePath, err)
		}
	}
	p.pool = func(jobs []harness.Job) ([]harness.Result, error) {
		s, err := harness.RunSuiteParallel(cfg, runtime.GOMAXPROCS(0), policies...)
		if err != nil {
			return nil, err
		}
		out := make([]harness.Result, len(jobs))
		for i, j := range jobs {
			out[i] = s[j.Bench][j.Kind]
		}
		return out, nil
	}
	return p, nil
}}

// finegrainParams is the one generated DAG of the finegrain workload:
// the generator's task cap, 4 KiB per task, about 3 accesses a task.
func finegrainParams(seed uint64) workgen.Params {
	p := workgen.Default()
	p.Seed = seed
	p.Depth, p.Width, p.Bytes = 256, 256, 4096
	return p
}

// finegrainPinned holds the finegrain digests at seed 1, in the golden
// file format.
const finegrainPinned = `
gen:seed=1,depth=256,width=256,fanout=2,reuse=2,bytes=4096,overlap=50,inout=10,compute=0,wait=0	S-NUCA	cycles=17684894	digest=e3c298fe4354af74
gen:seed=1,depth=256,width=256,fanout=2,reuse=2,bytes=4096,overlap=50,inout=10,compute=0,wait=0	R-NUCA	cycles=17685421	digest=5f50b6b92d9b3e15
gen:seed=1,depth=256,width=256,fanout=2,reuse=2,bytes=4096,overlap=50,inout=10,compute=0,wait=0	TD-NUCA	cycles=17685077	digest=7694e5729567b073
`

var finegrain = simWorkload{name: "finegrain", plan: func(seed uint64, tr *tracer) (simPlan, error) {
	cfg := harness.DefaultConfig()
	cfg.Factor = factor
	params := finegrainParams(seed)
	start := time.Now()
	spec, err := workgen.New(params, factor)
	tr.record("workgen.New", "", 0, start, time.Now())
	if err != nil {
		return simPlan{}, err
	}
	p := simPlan{
		poolName: "harness.RunMany",
		ops:      func(c counters) uint64 { return c.Tasks },
		pool: func(jobs []harness.Job) ([]harness.Result, error) {
			return harness.RunMany(jobs, runtime.GOMAXPROCS(0))
		},
	}
	for _, k := range policies {
		p.jobs = append(p.jobs, harness.Job{Bench: spec.Name, Kind: k, Cfg: cfg})
	}
	if seed == 1 {
		if p.want, err = parseGolden(strings.NewReader(finegrainPinned)); err != nil {
			return p, err
		}
	}
	return p, nil
}}

// checkSim counts the failed operations of one sequential pass and one
// pool pass over the same jobs (nil par: no pool pass). A sequential run
// fails on an error, a reported violation, a digest or makespan other
// than the pinned one, or an access digest that differs from the other
// policies' on its benchmark; a pool run fails on the first three or on
// any difference from its sequential twin.
func checkSim(jobs []harness.Job, seq []harness.Result, seqErr []error, par []harness.Result, parErr error, want map[runKey]pinned) (failed int, why []string) {
	fail := func(format string, args ...any) {
		failed++
		if len(why) < 8 {
			why = append(why, fmt.Sprintf(format, args...))
		}
	}
	badPin := func(r harness.Result) string {
		if want == nil {
			return ""
		}
		w, ok := want[runKey{r.Benchmark, r.Policy}]
		switch {
		case !ok:
			return "no pinned digest"
		case w.Cycles != uint64(r.Cycles) || w.Digest != r.Digest():
			return fmt.Sprintf("cycles=%d digest=%016x, pinned cycles=%d digest=%016x", r.Cycles, r.Digest(), w.Cycles, w.Digest)
		}
		return ""
	}
	groups := map[string][]harness.Result{}
	for i := range jobs {
		if seqErr[i] == nil {
			groups[jobs[i].Bench] = append(groups[jobs[i].Bench], seq[i])
		}
	}
	for i, j := range jobs {
		r := seq[i]
		switch {
		case seqErr[i] != nil:
			fail("%s/%s: %v", j.Bench, j.Kind, seqErr[i])
		case len(r.Violations) > 0:
			fail("%s/%s: violations: %s", j.Bench, j.Kind, r.Violations[0])
		case badPin(r) != "":
			fail("%s/%s: %s", j.Bench, j.Kind, badPin(r))
		case harness.VerifyAccessInvariance(groups[j.Bench]) != nil:
			fail("%s/%s: %v", j.Bench, j.Kind, harness.VerifyAccessInvariance(groups[j.Bench]))
		}
	}
	if par == nil && parErr == nil {
		return failed, why
	}
	for i, j := range jobs {
		switch {
		case parErr != nil:
			fail("pool %s/%s: %v", j.Bench, j.Kind, parErr)
		case len(par[i].Violations) > 0:
			fail("pool %s/%s: violations: %s", j.Bench, j.Kind, par[i].Violations[0])
		case badPin(par[i]) != "":
			fail("pool %s/%s: %s", j.Bench, j.Kind, badPin(par[i]))
		case seqErr[i] == nil && harness.VerifyRunsIdentical(seq[i:i+1], par[i:i+1]) != nil:
			fail("pool %v", harness.VerifyRunsIdentical(seq[i:i+1], par[i:i+1]))
		}
	}
	return failed, why
}

// simPass is one timed sequential pass: every job through harness.Run.
type simPass struct {
	res  []harness.Result
	errs []error
	dur  []time.Duration
	wall time.Duration
}

func runPass(jobs []harness.Job, tr *tracer) simPass {
	p := simPass{res: make([]harness.Result, len(jobs)), errs: make([]error, len(jobs)), dur: make([]time.Duration, len(jobs))}
	runtime.GC() // every timed phase starts from the same heap
	start := time.Now()
	for i, j := range jobs {
		t := time.Now()
		p.res[i], p.errs[i] = harness.Run(j.Bench, j.Kind, j.Cfg)
		p.dur[i] = tr.record("harness.Run", shortPolicy(j.Kind), 0, t, time.Now())
	}
	p.wall = time.Since(start)
	return p
}

// setUp builds the plan and runs the untimed warm-up operation (the
// pass's first job), returning the set-up time.
func (w simWorkload) setUp(seed uint64, tr *tracer) (simPlan, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	plan, err := w.plan(seed, tr)
	if err != nil {
		return plan, 0, err
	}
	j := plan.jobs[0]
	if _, err := harness.Run(j.Bench, j.Kind, j.Cfg); err != nil {
		return plan, 0, fmt.Errorf("warm-up %s/%s: %w", j.Bench, j.Kind, err)
	}
	return plan, time.Since(start), nil
}

func (w simWorkload) run(o options) (*report, error) {
	rep := newReport()
	var (
		setups, walls, pools []float64
		rss                  []float64
		perJob               [][]float64
		first                simPass
		plan                 simPlan
	)
	deadline := time.Now().Add(o.seconds)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		var setup time.Duration
		var err error
		mem := sampleRSS()
		plan, setup, err = w.setUp(o.seed, newTracer(false))
		if err != nil {
			mem.peakMB()
			return nil, err
		}
		pass := runPass(plan.jobs, newTracer(false))
		par, pool, parErr := plan.runPool(newTracer(false))
		rss = append(rss, mem.peakMB())

		failed, why := checkSim(plan.jobs, pass.res, pass.errs, par, parErr, plan.want)
		rep.count(2*len(plan.jobs), failed, why)
		if round == 0 {
			first = pass
			perJob = make([][]float64, len(plan.jobs))
		}
		for i, d := range pass.dur {
			perJob[i] = append(perJob[i], d.Seconds())
		}
		setups = append(setups, setup.Seconds())
		walls = append(walls, pass.wall.Seconds())
		pools = append(pools, pool.Seconds())
	}

	// wall_s is the median pass: each run at its median over the passes,
	// so one pass slowed by a neighbour on the host does not set it.
	var wall float64
	jobMed := make([]float64, len(perJob))
	for i, ds := range perJob {
		jobMed[i] = median(ds)
		wall += jobMed[i]
	}
	c := sumCounters(first.res)
	jobMS := make([]float64, len(jobMed))
	for i, s := range jobMed {
		jobMS[i] = s * 1e3
	}
	rep.e2e["wall_s"] = wall
	rep.e2e["ops_per_s"] = float64(plan.ops(c)) / wall
	rep.e2e["pool_wall_s"] = median(pools)
	rep.e2e["op_p50_ms"] = median(jobMS)
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["max_rss_mb"] = median(rss)
	rep.env["rounds"] = len(walls)
	rep.env["op_samples"] = len(jobMS)
	rep.env["op_p99_beyond"] = beyond(jobMS, 99)
	rep.env["pass_wall_s"] = walls
	rep.env["pool_wall_s"] = pools

	if !o.trace {
		return rep, nil
	}
	workers := float64(runtime.GOMAXPROCS(0))
	pw := median(pools)
	rep.layer["op_p99_ms"] = percentile(jobMS, 99)
	rep.layer["harness.pool_busy_ratio"] = wall / (workers * pw)
	rep.layer["harness.pool_tail_s"] = pw - wall/workers

	// The traced round: spans on every call, the CPU profile and
	// allocation counts over the sequential pass.
	tr := newTracer(true)
	plan, _, err := w.setUp(o.seed, tr)
	if err != nil {
		return nil, err
	}
	var traced simPass
	prof, err := profile(o.workdir, func() { traced = runPass(plan.jobs, tr) })
	if err != nil {
		return nil, err
	}
	par, _, parErr := plan.runPool(tr)
	failed, why := checkSim(plan.jobs, traced.res, traced.errs, par, parErr, plan.want)
	rep.count(2*len(plan.jobs), failed, why)
	tc := sumCounters(traced.res)
	if tc != c {
		rep.count(1, 1, []string{fmt.Sprintf("traced counters %+v differ from untraced %+v", tc, c)})
	}
	tc.put(rep.layer)
	modelMetrics(traced.res, rep.layer)
	for _, k := range policies {
		rep.layer["harness.run_s."+shortPolicy(k)] = tr.sum("harness.Run", shortPolicy(k))
	}
	rep.layer["workgen.expand_s"] = tr.sum("workgen.New", "")
	prof.put(rep.layer, plan.ops(tc), tc)
	rep.layer["trace.overhead_ratio"] = traced.wall.Seconds() / median(walls)
	return rep, tr.write(o.workdir, fmt.Sprintf("spans-%s-seed%d.json", w.name, o.seed))
}
