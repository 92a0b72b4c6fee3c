package main

// Tracing from outside the program: the benchmark records a span around
// each call it makes into a layer's public functions, keeps the spans in
// memory and writes them out when the run ends. Nothing inside the
// program is instrumented; the layers a span can see are the ones the
// benchmark calls directly (and the HTTP handlers it wraps).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded call. Parent is 0 for a root span; Op ties the
// spans of one benchmark operation (or request) together. Tag carries a
// classification the span's metric splits on (a cache verdict).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder collects spans. A nil *recorder records nothing and reads no
// clock, so untraced runs pay nothing for the calls below.
type recorder struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// open is a span in progress.
type open struct {
	id, parent, op int64
	name           string
	start          time.Duration
}

// start opens a span named name under parent (0 for a root).
func (r *recorder) start(op, parent int64, name string) open {
	if r == nil {
		return open{}
	}
	return open{id: r.ids.Add(1), parent: parent, op: op, name: name, start: time.Since(r.t0)}
}

// end closes the span.
func (r *recorder) end(o open) { r.endTag(o, "") }

// endTag closes the span with a tag.
func (r *recorder) endTag(o open, tag string) {
	if r == nil {
		return
	}
	end := time.Since(r.t0)
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: o.id, Parent: o.parent, Op: o.op, Name: o.name, Tag: tag,
		Start: int64(o.start), End: int64(end)})
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON lines at path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
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

// layerStat aggregates the spans of one name.
type layerStat struct {
	n     int
	total float64              // summed duration, ms
	self  float64              // summed self time, ms
	tags  map[string][]float64 // durations by tag, ms
}

func (s *layerStat) meanMS() float64     { return mean(s.total, s.n) }
func (s *layerStat) meanSelfMS() float64 { return mean(s.self, s.n) }

func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// aggregate groups spans by name and computes each span's self time: its
// duration minus the part of its interval its children cover. Children
// may run in parallel (the three schedulers of one comparison), so the
// covered part is the union of their intervals, not their sum.
func aggregate(spans []span) map[string]*layerStat {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerStat{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{tags: map[string][]float64{}}
			out[s.Name] = st
		}
		dur := ms(s.End - s.Start)
		st.n++
		st.total += dur
		st.self += dur - ms(covered(s, children[s.ID]))
		if s.Tag != "" {
			st.tags[s.Tag] = append(st.tags[s.Tag], dur)
		}
	}
	return out
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// covered returns how many nanoseconds of s the union of kids spans.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
			continue
		}
		curB = max(curB, v[1])
	}
	return total + curB - curA
}

// spanPath is the default span file of a traced run: spans/ beside the
// binary, which run.sh builds into bench/.bench_build.
func spanPath(workload string, seed int64) string {
	dir := "."
	if exe, err := os.Executable(); err == nil {
		dir = filepath.Dir(exe)
	}
	return filepath.Join(dir, "spans", fmt.Sprintf("%s-s%d.jsonl", workload, seed))
}
