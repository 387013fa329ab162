package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into the program, recorded from the benchmark's
// side of the call. Spans of one operation share Op; Parent names the span
// whose interval contains this one.
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how every untraced phase runs.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record adds the span [start, end) for operation op.
func (t *tracer) record(name, parent string, op uint64, start, end time.Time, bytes int) {
	if t == nil {
		return
	}
	s := span{Name: name, Op: op, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Bytes: bytes}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// spanStats summarizes the spans of one name.
type spanStats struct {
	Count int
	Total time.Duration
}

func (s spanStats) mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// stats aggregates the recorded spans by name.
func (t *tracer) stats() map[string]spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]spanStats)
	for _, s := range t.spans {
		st := out[s.Name]
		st.Count++
		st.Total += time.Duration(s.End - s.Start)
		out[s.Name] = st
	}
	return out
}

// writeJSONL writes every span, one JSON object per line, sorted by start.
func (t *tracer) writeJSONL(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable renders the per-layer metrics and the span summary.
func printTable(w io.Writer, m []metric, t *tracer) {
	fmt.Fprintf(w, "%-34s %14s  %s\n", "per-layer metric", "value", "unit")
	for _, x := range m {
		fmt.Fprintf(w, "%-34s %14.4f  %s\n", x.name, x.value, x.unit)
	}
	st := t.stats()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\n%-34s %9s %12s\n", "span", "count", "mean_us")
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %9d %12.1f\n", n, st[n].Count, float64(st[n].mean().Nanoseconds())/1e3)
	}
}
