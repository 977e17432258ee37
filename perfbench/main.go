// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed time and prints the benchmark's
// metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (see BENCHMARK.json for why each is included):
//
//	suite      the 8 Table II benchmarks under S-NUCA, R-NUCA and TD-NUCA
//	finegrain  one 65,536-task generated DAG under the same policies
//	serve      closed-loop clients replaying a skewed request stream
//	           against an in-process tdnuca-serve
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// measures the same way, then makes one more traced pass and reports
// the per-layer metrics (spans, a CPU profile folded by package,
// allocation counts and the exact model counters). The line before the
// result records the environment. Run it from the repository root
// through run.sh, which builds it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	workdir  string
}

// report is what one run measured and checked.
type report struct {
	attempted, failed int
	why               []string
	e2e, layer        map[string]float64
	env               map[string]any
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, env: map[string]any{}}
}

// count adds attempted operations and the failures among them.
func (r *report) count(attempted, failed int, why []string) {
	r.attempted += attempted
	r.failed += failed
	r.why = append(r.why, why...)
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// result selects the reported metric set; a metric the workload did not
// produce (a layer it does not exercise) reads 0.
func (r *report) result(trace bool) result {
	table, got := endToEnd, r.e2e
	if trace {
		table, got = perLayer, r.layer
	}
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, m := range table {
		out.Metrics[m.Name] = value{Value: got[m.Name], Unit: m.Unit}
	}
	return out
}

// maxRSSMB is the process's peak resident set so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rssSampler tracks the resident set of the process during one round,
// sampling /proc/self/statm every 10ms. A round's peak is taken this way
// rather than from the lifetime maximum so that the run can report the
// median over its rounds.
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		peak := residentMB()
		for {
			select {
			case <-s.stop:
				s.done <- max(peak, residentMB())
				return
			case <-t.C:
				peak = max(peak, residentMB())
			}
		}
	}()
	return s
}

// peakMB stops the sampler and returns the largest resident set it saw.
func (s *rssSampler) peakMB() float64 {
	close(s.stop)
	return <-s.done
}

func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages*uint64(os.Getpagesize())) / (1 << 20)
}

// fsTypes names the filesystems a serve cache directory is likely to
// sit on, by statfs magic number.
var fsTypes = map[int64]string{
	0xef53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683e: "btrfs",
	0x794c7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse",
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsTypes[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// cpuTicks reads the machine-wide CPU time counters: the time stolen from
// this machine's virtual CPUs by the hypervisor, and the total.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func run(o options) (*report, error) {
	var rep *report
	var err error
	steal0, total0 := cpuTicks()
	switch o.workload {
	case "suite":
		rep, err = suite.run(o)
	case "finegrain":
		rep, err = finegrain.run(o)
	case "serve":
		rep, err = runServe(o)
	default:
		return nil, fmt.Errorf("unknown workload %q (want suite, finegrain or serve)", o.workload)
	}
	if err != nil {
		return nil, err
	}
	rep.env["process_max_rss_mb"] = maxRSSMB()
	if steal1, total1 := cpuTicks(); total1 > total0 {
		// Time the hypervisor ran other guests on this machine's CPUs:
		// the main cause of run-to-run drift on a shared host.
		rep.env["steal_pct"] = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	rep.env["workload"] = o.workload
	rep.env["seed"] = o.seed
	rep.env["seconds"] = o.seconds.Seconds()
	rep.env["num_cpu"] = runtime.NumCPU()
	rep.env["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.env["go_version"] = runtime.Version()
	return rep, nil
}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "suite", "workload: suite, finegrain or serve")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed (1 is the golden configuration)")
	flag.IntVar(&seconds, "seconds", 25, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1: add a traced pass and report the per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/perfbench", "scratch directory for the serve cache, profile and spans")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	runtime.GOMAXPROCS(runtime.NumCPU())

	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, w := range rep.why {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", w)
	}
	env, err := json.Marshal(map[string]any{"env": rep.env})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := json.Marshal(rep.result(o.trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(env))
	fmt.Println(string(res))
}
