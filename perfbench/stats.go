package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. It never interpolates, so the value is always one that was
// measured. Returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle sample, the mean of the two middle ones for an
// even count. Returns 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// beyond is how many samples lie strictly above the p-th percentile:
// the sample count a tail percentile rests on.
func beyond(xs []float64, p float64) int {
	v := percentile(xs, p)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one timed call into an exported function of the program.
// Parent ties the calls of one request together (0 = none).
type span struct {
	Name    string `json:"name"`
	Parent  int64  `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Attr    string `json:"attr,omitempty"`
}

// tracer keeps spans in memory for the traced pass; the zero value
// (off) records nothing. Safe for concurrent use.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// record stores the span [start, end) and returns its duration.
func (t *tracer) record(name, attr string, parent int64, start, end time.Time) time.Duration {
	d := end.Sub(start)
	if t.on {
		t.mu.Lock()
		t.spans = append(t.spans, span{Name: name, Parent: parent, StartNS: start.Sub(t.t0).Nanoseconds(), DurNS: d.Nanoseconds(), Attr: attr})
		t.mu.Unlock()
	}
	return d
}

// sum totals the durations of the named spans whose attr matches (any
// attr when attr is empty), in seconds.
func (t *tracer) sum(name, attr string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for _, s := range t.spans {
		if s.Name == name && (attr == "" || s.Attr == attr) {
			ns += s.DurNS
		}
	}
	return float64(ns) / 1e9
}

// write saves the spans as JSON under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
