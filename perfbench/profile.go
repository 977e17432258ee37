package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// cpuProfile is the traced pass's CPU profile folded to self time per
// package, plus the allocation counts over the same interval.
type cpuProfile struct {
	total  time.Duration            // all samples
	flat   map[string]time.Duration // self time by package import path
	gc     time.Duration            // cumulative time under the GC workers and assists
	allocs uint64
	bytes  uint64
	gcs    uint32
}

// gcRoots are the runtime functions all garbage-collection work runs
// under: the background mark workers, mutator assists and the sweeper.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// profile runs fn under the CPU profiler and folds the profile with the
// toolchain's offline pprof.
func profile(dir string, fn func()) (*cpuProfile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	if err := f.Close(); err != nil {
		return nil, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	p, err := foldTop(out)
	if err != nil {
		return nil, err
	}
	p.allocs = after.Mallocs - before.Mallocs
	p.bytes = after.TotalAlloc - before.TotalAlloc
	p.gcs = after.NumGC - before.NumGC
	return p, nil
}

// foldTop parses `pprof -top` text: the "Total samples = D" header and
// one "flat flat% sum% cum cum% function" row per function.
func foldTop(out []byte) (*cpuProfile, error) {
	p := &cpuProfile{flat: map[string]time.Duration{}}
	sc := bufio.NewScanner(bytes.NewReader(out))
	rows := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if _, rest, ok := strings.Cut(line, "Total samples = "); ok {
			d, err := time.ParseDuration(strings.Fields(rest)[0])
			if err != nil {
				return nil, fmt.Errorf("pprof total: %w", err)
			}
			p.total = d
			continue
		}
		if strings.HasPrefix(line, "flat ") {
			rows = true
			continue
		}
		f := strings.Fields(line)
		if !rows || len(f) < 6 {
			continue
		}
		flat, err := time.ParseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		cum, err := time.ParseDuration(f[3])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		fn := f[5]
		p.flat[pkgOf(fn)] += flat
		for _, root := range gcRoots {
			if fn == root {
				p.gc += cum
			}
		}
	}
	if p.total <= 0 {
		return nil, fmt.Errorf("pprof: no samples in profile")
	}
	return p, sc.Err()
}

// pkgOf returns the import path of a symbolized Go function name such
// as "tdnuca/internal/noc.(*linkState).serve" or
// "net/http.(*conn).serve".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations may hold other paths
	}
	dir, name := "", fn
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		dir, name = fn[:i+1], fn[i+1:]
	}
	if i := strings.IndexByte(name, '.'); i >= 0 {
		name = name[:i]
	}
	return dir + name
}

// share is the package's self time as a percentage of all samples.
func (p *cpuProfile) share(pkg string) float64 {
	return 100 * float64(p.flat[pkg]) / float64(p.total)
}

// put stores the CPU shares and the per-work-unit costs derived from
// the profile; ops is the workload's work unit count over the profiled
// interval and c its model counters.
func (p *cpuProfile) put(m map[string]float64, ops uint64, c counters) {
	var memory float64
	for _, pkg := range []string{"machine", "cache", "noc", "vm", "taskrt", "core", "rnuca", "policy", "serve", "client"} {
		s := p.share("tdnuca/internal/" + pkg)
		m["cpu."+pkg] = s
		switch pkg {
		case "machine", "cache", "noc", "vm":
			memory += s
		}
	}
	m["cpu.net_http"] = p.share("net/http")
	m["cpu.encoding_json"] = p.share("encoding/json")
	m["cpu.runtime_gc"] = 100 * float64(p.gc) / float64(p.total)
	cpuNS := float64(p.total.Nanoseconds())
	m["machine.host_ns_per_access"] = 0
	if c.Accesses > 0 {
		m["machine.host_ns_per_access"] = memory / 100 * cpuNS / float64(c.Accesses)
	}
	m["taskrt.host_us_per_task"] = 0
	if c.Tasks > 0 {
		m["taskrt.host_us_per_task"] = m["cpu.taskrt"] / 100 * cpuNS / 1e3 / float64(c.Tasks)
	}
	m["runtime.allocs_per_op"] = float64(p.allocs) / float64(ops)
	m["runtime.alloc_bytes_per_op"] = float64(p.bytes) / float64(ops)
	m["runtime.gc_cycles"] = float64(p.gcs)
}
