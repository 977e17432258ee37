package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"tdnuca/internal/client"
	"tdnuca/internal/harness"
	"tdnuca/internal/serve"
	"tdnuca/internal/sim"
	"tdnuca/internal/workgen"
)

// The serve traffic: closed-loop clients replay a skewed stream over a
// few hundred small generated jobs, so about 2% of requests miss and
// simulate while the rest are answered from the server's job table.
const (
	serveClients  = 2
	serveRequests = 20000
	serveDAGs     = 134 // × 3 policies = 402 unique jobs
)

// serveDAG is the small generated job shape every unique job uses:
// about a millisecond of simulation, so misses cannot crowd out hits.
func serveDAG(seed uint64) workgen.Params {
	p := workgen.Default()
	p.Seed = seed
	p.Depth, p.Width, p.Bytes = 4, 8, 4096
	return p
}

// warmSpec is the set-up's warm-up operation: one job outside the
// replayed stream, through the full miss path (simulate, encode, fsync).
var warmSpec = serve.JobSpec{Bench: "LU", Policy: "tdnuca", Factor: float64(factor)}

// servePlan is the generated input of one replay.
type servePlan struct {
	specs  []serve.JobSpec
	stream [][]int // per client: indices into specs, in send order
}

// planServe derives the unique jobs and the request stream from the
// seed. Job k first appears at request k·N/U, spreading misses evenly;
// every other request picks among the jobs introduced so far, skewed
// toward the earliest (the popular ones).
func planServe(seed uint64, tr *tracer) (servePlan, error) {
	rng := sim.NewRNG(seed)
	var p servePlan
	for g := 0; g < serveDAGs; g++ {
		params := serveDAG(rng.Uint64() % (1 << 32))
		start := time.Now()
		spec, err := workgen.New(params, factor)
		tr.record("workgen.New", "", 0, start, time.Now())
		if err != nil {
			return p, err
		}
		for _, k := range policies {
			p.specs = append(p.specs, serve.JobSpec{Bench: spec.Name, Policy: string(k), Factor: float64(factor)})
		}
	}
	u := len(p.specs)
	p.stream = make([][]int, serveClients)
	next := 0
	for i := 0; i < serveRequests; i++ {
		idx := next
		if next < u && i == next*serveRequests/u {
			next++
		} else {
			f := rng.Float64()
			idx = int(float64(next) * f * f)
		}
		p.stream[i%serveClients] = append(p.stream[i%serveClients], idx)
	}
	return p, nil
}

// request is one client-observed request of a replay.
type request struct {
	spec    int
	hit     bool
	total   time.Duration // Submit→Result
	submit  time.Duration
	wait    time.Duration // Await; misses only
	result  time.Duration
	payload int
	err     error
}

// stack is one running in-process service with its clients.
type stack struct {
	srv     *serve.Server
	httpSrv *http.Server
	served  chan error
	tp      *http.Transport
	clients []*client.Client
	dir     string
}

func startStack(workdir string, tr *tracer) (*stack, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "serve-cache-")
	if err != nil {
		return nil, err
	}
	st := &stack{dir: dir, served: make(chan error, 1)}
	t := time.Now()
	st.srv, err = serve.New(serve.Config{Workers: runtime.GOMAXPROCS(0), CacheDir: dir})
	tr.record("serve.New", "", 0, t, time.Now())
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	t = time.Now()
	st.srv.Start(context.Background())
	tr.record("serve.Start", "", 0, t, time.Now())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.srv.Drain(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	t = time.Now()
	st.httpSrv = &http.Server{Handler: st.srv.Handler()}
	tr.record("serve.Handler", "", 0, t, time.Now())
	go func() { st.served <- st.httpSrv.Serve(ln) }()
	st.tp = &http.Transport{MaxIdleConnsPerHost: serveClients}
	for c := 0; c < serveClients; c++ {
		st.clients = append(st.clients, client.New(client.Config{
			BaseURL: "http://" + ln.Addr().String(),
			HTTP:    &http.Client{Transport: st.tp},
			Seed:    uint64(c + 1),
		}))
	}
	return st, nil
}

// stop drains the service, closes the listener and removes the cache
// directory, waiting for the HTTP server goroutine to exit.
func (st *stack) stop(tr *tracer) error {
	t := time.Now()
	err := st.srv.Drain(context.Background())
	tr.record("serve.Drain", "", 0, t, time.Now())
	if serr := st.httpSrv.Shutdown(context.Background()); err == nil {
		err = serr
	}
	if serr := <-st.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	st.tp.CloseIdleConnections()
	if rerr := os.RemoveAll(st.dir); err == nil {
		err = rerr
	}
	return err
}

// do sends one request the way a sweep script would: submit, wait for
// the job if it was not already done, fetch the payload.
func do(ctx context.Context, cl *client.Client, spec serve.JobSpec, id int64, tr *tracer) (request, []byte) {
	var r request
	t0 := time.Now()
	view, err := cl.Submit(ctx, spec)
	t1 := time.Now()
	r.submit = tr.record("client.Submit", "", id, t0, t1)
	if err != nil {
		r.err = err
		return r, nil
	}
	r.hit = view.Status == serve.StatusDone
	t2 := t1
	if !r.hit {
		if _, err := cl.Await(ctx, view.ID); err != nil {
			r.err = err
			return r, nil
		}
		t2 = time.Now()
		r.wait = tr.record("client.Await", "", id, t1, t2)
	}
	payload, err := cl.Result(ctx, view.ID)
	t3 := time.Now()
	r.result = tr.record("client.Result", "", id, t2, t3)
	r.total = t3.Sub(t0)
	r.err = err
	r.payload = len(payload)
	return r, payload
}

// replay is one timed pass of the stream against a fresh stack.
type replay struct {
	wall     time.Duration
	reqs     []request
	payloads map[int][]byte // first payload per spec
	checks   int            // replay-level checks made, besides one per request
	failed   int
	why      []string
	stats    serve.Stats
	cc       client.Counters
}

func runReplay(plan servePlan, st *stack, tr *tracer) *replay {
	rp := &replay{payloads: map[int][]byte{}}
	per := make([][]request, serveClients)
	firsts := make([]map[int][]byte, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			first := map[int][]byte{}
			for n, idx := range plan.stream[c] {
				r, payload := do(context.Background(), st.clients[c], plan.specs[idx], int64(n*serveClients+c+1), tr)
				r.spec = idx
				if r.err == nil {
					if f, ok := first[idx]; !ok {
						first[idx] = payload
					} else if !bytes.Equal(f, payload) {
						r.err = fmt.Errorf("payload of %s differs between requests", plan.specs[idx].Bench)
					}
				}
				per[c] = append(per[c], r)
			}
			firsts[c] = first
		}(c)
	}
	wg.Wait()
	rp.wall = time.Since(start)
	differ := -1
	for c := range per {
		rp.reqs = append(rp.reqs, per[c]...)
		for idx, p := range firsts[c] {
			if f, ok := rp.payloads[idx]; ok && !bytes.Equal(f, p) {
				differ = idx
			}
			rp.payloads[idx] = p
		}
	}
	rp.check(differ < 0, "payload of spec %d differs between clients", differ)
	for _, r := range rp.reqs {
		if r.err != nil {
			rp.fail("request for spec %d: %v", r.spec, r.err)
		}
	}
	return rp
}

// check counts one replay-level check, failed unless ok.
func (rp *replay) check(ok bool, format string, args ...any) {
	rp.checks++
	if !ok {
		rp.fail(format, args...)
	}
}

func (rp *replay) fail(format string, args ...any) {
	rp.failed++
	if len(rp.why) < 8 {
		rp.why = append(rp.why, fmt.Sprintf(format, args...))
	}
}

// checkServer verifies the service's own account of a replay: one
// simulation per unique job (plus the warm-up), no request refused, no
// client retry of any kind.
func checkServer(rp *replay, unique int) {
	s, c := rp.stats, rp.cc
	rp.check(s.Completed == uint64(unique+1), "server completed %d jobs, want %d unique + 1 warm-up", s.Completed, unique)
	rp.check(s.Rejected == 0 && s.Failed == 0 && s.Canceled == 0,
		"server rejected %d, failed %d, canceled %d jobs", s.Rejected, s.Failed, s.Canceled)
	rp.check(c.Retries+c.Resubmits+c.StreamResumes+c.RetryAfterWaits == 0, "client retried: %+v", c)
}

// checkPayloads compares every unique job's served payload with a
// direct harness run of the same spec: the digest must match, and each
// request for a job whose payload does not counts as failed. It returns
// the decoded results in spec order.
func checkPayloads(rp *replay, direct []harness.Result) []harness.Result {
	out := make([]harness.Result, len(direct))
	bad := map[int]string{}
	for idx, want := range direct {
		b, ok := rp.payloads[idx]
		if !ok {
			continue // never answered: its requests already failed
		}
		var p serve.ResultPayload
		if err := json.Unmarshal(b, &p); err != nil {
			bad[idx] = err.Error()
			continue
		}
		out[idx] = p.Result
		if got := fmt.Sprintf("%016x", want.Digest()); p.Digest != got {
			bad[idx] = fmt.Sprintf("served digest %s, direct run %s", p.Digest, got)
		}
	}
	for _, r := range rp.reqs {
		if why, ok := bad[r.spec]; ok && r.err == nil {
			rp.fail("spec %d: %s", r.spec, why)
		}
	}
	return out
}

// serveReplay sets up a fresh stack (timed as set-up, warm-up
// included), replays the stream, and reads the service's counters.
func serveReplay(o options, tr *tracer) (*replay, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	plan, err := planServe(o.seed, tr)
	if err != nil {
		return nil, 0, err
	}
	st, err := startStack(o.workdir, tr)
	if err != nil {
		return nil, 0, err
	}
	if _, err := st.clients[0].Run(context.Background(), warmSpec); err != nil {
		st.stop(tr)
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	setup := time.Since(start)
	runtime.GC() // every timed phase starts from the same heap
	rp := runReplay(plan, st, tr)
	rp.stats, err = st.clients[0].Stats(context.Background())
	for _, cl := range st.clients {
		c := cl.Counters()
		rp.cc.Retries += c.Retries
		rp.cc.Resubmits += c.Resubmits
		rp.cc.StreamResumes += c.StreamResumes
		rp.cc.RetryAfterWaits += c.RetryAfterWaits
	}
	if serr := st.stop(tr); err == nil {
		err = serr
	}
	if err != nil {
		return nil, 0, err
	}
	checkServer(rp, len(plan.specs))
	return rp, setup, nil
}

func jobsOf(specs []serve.JobSpec) []harness.Job {
	cfg := harness.DefaultConfig()
	cfg.Factor = factor
	jobs := make([]harness.Job, len(specs))
	for i, s := range specs {
		jobs[i] = harness.Job{Bench: s.Bench, Kind: harness.PolicyKind(s.Policy), Cfg: cfg}
	}
	return jobs
}

// serveRound is what one replay leaves behind once checked. Rounds keep
// only these few numbers, so the live heap, and with it the garbage
// collector's pace, is the same in every round.
type serveRound struct {
	setup, wall, pool    float64   // s
	rss                  float64   // MB, the round's peak
	hitMS                []float64 // Submit→Result of each hit
	submitP50, resultP50 float64   // ms
	awaitP50             float64   // ms
	missP50, missP99     float64   // ms
	payloadBytes         float64
	completed            int // requests answered correctly
	misses, missTail     int
	counters             counters
	stats                serve.Stats
	cc                   client.Counters
}

// summarize checks a replay against the direct runs and reduces it to
// its round summary.
func summarize(rp *replay, direct []harness.Result, rep *report) serveRound {
	served := checkPayloads(rp, direct)
	rep.count(len(rp.reqs)+rp.checks, rp.failed, rp.why)
	var hits, misses, submits, results, waits []float64
	var bytes float64
	for _, r := range rp.reqs {
		switch {
		case r.err != nil: // failed, already counted
		case r.hit:
			hits = append(hits, ms(r.total))
			submits = append(submits, ms(r.submit))
			results = append(results, ms(r.result))
			bytes += float64(r.payload)
		default:
			misses = append(misses, ms(r.total))
			waits = append(waits, ms(r.wait))
		}
	}
	return serveRound{
		wall:         rp.wall.Seconds(),
		hitMS:        hits,
		submitP50:    percentile(submits, 50),
		resultP50:    percentile(results, 50),
		awaitP50:     percentile(waits, 50),
		missP50:      percentile(misses, 50),
		missP99:      percentile(misses, 99),
		payloadBytes: bytes / float64(max(len(hits), 1)),
		completed:    len(hits) + len(misses),
		misses:       len(misses),
		missTail:     beyond(misses, 99),
		counters:     sumCounters(served),
		stats:        rp.stats,
		cc:           rp.cc,
	}
}

// medianOf is the median over rounds of one summary field.
func medianOf(rs []serveRound, f func(serveRound) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

func runServe(o options) (*report, error) {
	rep := newReport()
	// The reference: every unique job run directly, once, before the
	// replays; each replay's payloads are checked against it.
	tr := newTracer(o.trace)
	plan, err := planServe(o.seed, newTracer(false))
	if err != nil {
		return nil, err
	}
	jobs := jobsOf(plan.specs)
	direct := make([]harness.Result, len(jobs))
	directMS := make([]float64, len(jobs))
	for i, j := range jobs {
		t := time.Now()
		r, err := harness.Run(j.Bench, j.Kind, j.Cfg)
		directMS[i] = ms(tr.record("harness.Run", shortPolicy(j.Kind), 0, t, time.Now()))
		if err != nil {
			return nil, err
		}
		direct[i] = r
	}

	var rounds []serveRound
	deadline := time.Now().Add(o.seconds)
	for len(rounds) == 0 || time.Now().Before(deadline) {
		mem := sampleRSS()
		rp, setup, err := serveReplay(o, newTracer(false))
		if err != nil {
			mem.peakMB()
			return nil, err
		}
		// The same jobs on the run-level pool, without the service.
		runtime.GC()
		start := time.Now()
		par, err := harness.RunMany(jobs, runtime.GOMAXPROCS(0))
		pool := tr.record("harness.RunMany", "", 0, start, time.Now())
		if err == nil {
			err = harness.VerifyRunsIdentical(direct, par)
		}
		rp.check(err == nil, "pool: %v", err)
		r := summarize(rp, direct, rep)
		r.setup, r.pool, r.rss = setup.Seconds(), pool.Seconds(), mem.peakMB()
		rounds = append(rounds, r)
	}

	wall := medianOf(rounds, func(r serveRound) float64 { return r.wall })
	rep.e2e["wall_s"] = wall
	rep.e2e["ops_per_s"] = medianOf(rounds, func(r serveRound) float64 { return float64(r.completed) / r.wall })
	rep.e2e["pool_wall_s"] = medianOf(rounds, func(r serveRound) float64 { return r.pool })
	var hits []float64
	for _, r := range rounds {
		hits = append(hits, r.hitMS...)
	}
	rep.e2e["op_p50_ms"] = percentile(hits, 50)
	rep.e2e["setup_s"] = medianOf(rounds, func(r serveRound) float64 { return r.setup })
	rep.e2e["max_rss_mb"] = medianOf(rounds, func(r serveRound) float64 { return r.rss })
	var walls, pools []float64
	for _, r := range rounds {
		walls = append(walls, r.wall)
		pools = append(pools, r.pool)
	}
	r0 := rounds[0]
	rep.env["rounds"] = len(rounds)
	rep.env["pass_wall_s"] = walls
	rep.env["pool_wall_s"] = pools
	rep.env["op_samples"] = len(hits)
	rep.env["op_p99_beyond"] = beyond(hits, 99)
	rep.env["miss_samples_per_round"] = r0.misses
	rep.env["miss_p99_beyond_per_round"] = r0.missTail
	rep.env["serve_cache_fs"] = fsType(o.workdir)

	if !o.trace {
		return rep, nil
	}
	rep.layer["op_p99_ms"] = percentile(hits, 99)
	rep.layer["client.submit_p50_ms"] = medianOf(rounds, func(r serveRound) float64 { return r.submitP50 })
	rep.layer["client.result_p50_ms"] = medianOf(rounds, func(r serveRound) float64 { return r.resultP50 })
	rep.layer["client.await_p50_ms"] = medianOf(rounds, func(r serveRound) float64 { return r.awaitP50 })
	rep.layer["serve.miss_p50_ms"] = medianOf(rounds, func(r serveRound) float64 { return r.missP50 })
	rep.layer["serve.miss_p99_ms"] = medianOf(rounds, func(r serveRound) float64 { return r.missP99 })
	rep.layer["serve.payload_bytes"] = r0.payloadBytes
	rep.layer["harness.direct_run_p50_ms"] = percentile(directMS, 50)
	var directSum float64
	for _, d := range directMS {
		directSum += d / 1e3
	}
	workers := float64(runtime.GOMAXPROCS(0))
	pw := rep.e2e["pool_wall_s"]
	rep.layer["harness.pool_busy_ratio"] = directSum / (workers * pw)
	rep.layer["harness.pool_tail_s"] = pw - directSum/workers
	for _, k := range policies {
		rep.layer["harness.run_s."+shortPolicy(k)] = tr.sum("harness.Run", shortPolicy(k))
	}
	modelMetrics(direct, rep.layer)

	// The traced replay: spans on every client and service call, the
	// CPU profile and allocation counts over set-up and replay.
	var rp *replay
	prof, perr := profile(o.workdir, func() { rp, _, err = serveReplay(o, tr) })
	if err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	traced := summarize(rp, direct, rep)
	if traced.counters != r0.counters {
		rep.count(1, 1, []string{fmt.Sprintf("traced counters %+v differ from untraced %+v", traced.counters, r0.counters)})
	}
	traced.counters.put(rep.layer)
	prof.put(rep.layer, serveRequests, traced.counters)
	rep.layer["workgen.expand_s"] = tr.sum("workgen.New", "")
	st := traced.stats
	for k, v := range map[string]uint64{
		"serve.completed": st.Completed, "serve.coalesced": st.Coalesced,
		"serve.cache_hits": st.CacheHits, "serve.cache_misses": st.CacheMisses,
		"serve.cache_evictions": st.CacheEvictions, "serve.rejected": st.Rejected,
		"client.retries": traced.cc.Retries,
	} {
		rep.layer[k] = float64(v)
	}
	rep.layer["trace.overhead_ratio"] = traced.wall / wall
	return rep, tr.write(o.workdir, fmt.Sprintf("spans-serve-seed%d.json", o.seed))
}
