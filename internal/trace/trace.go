// Package trace is the schedule-execution tracing and timeline-analytics
// subsystem: typed, cycle-stamped spans recorded while the timing
// simulator walks a schedule, plus the derived analytics layer every
// performance argument in the paper rests on.
//
// The paper's whole case for the Complete Data Scheduler is a timeline
// case — data and context transfers for cluster c+1 hide under the
// computation of cluster c on the single DMA channel (Figure 6) — and
// scalar totals cannot show whether that overlap actually happened. A
// Timeline can: it records every DMA transfer (data vs. context), every
// kernel compute interval, every Frame Buffer set switch and every
// Context Memory load as a span or mark on its resource's track, and the
// analytics layer turns the track structure into per-resource
// utilization, computation/transfer overlap efficiency and a
// critical-path decomposition of the makespan.
//
// Recording is strictly observational: a nil *Recorder short-circuits
// every emit (the simulator's traced and untraced paths are one code
// path), so enabling tracing can never change a schedule or a timing
// result — pinned by golden byte-identity tests and a benchmark.
//
// Exporters: Chrome trace_event JSON (chrome://tracing, Perfetto), a
// self-contained SVG Gantt chart, and compact text summaries/diffs.
package trace

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Resource is one occupancy track of the machine model: spans on the
// same resource never overlap (the tiling invariant internal/verify
// checks).
type Resource int8

const (
	// DMA is the single shared DMA channel: data and context transfers
	// strictly serialize on it.
	DMA Resource = iota
	// RCArray is the reconfigurable-cell array: one cluster visit
	// computes at a time.
	RCArray

	numResources
)

func (r Resource) String() string {
	switch r {
	case DMA:
		return "DMA"
	case RCArray:
		return "RC array"
	}
	return fmt.Sprintf("resource(%d)", int8(r))
}

// Kind types a span's activity.
type Kind int8

const (
	// KindContext is a Context Memory load: context words moving over
	// the DMA channel before a visit may execute.
	KindContext Kind = iota
	// KindLoad is one datum's external-memory -> Frame Buffer transfer.
	KindLoad
	// KindStore is one datum's Frame Buffer -> external-memory drain.
	KindStore
	// KindCompute is a cluster visit executing on the RC array.
	KindCompute
	// KindPrefetch is a context load the streaming executor hoisted into
	// the previous visit's compute window (sim.RunStream with prefetch
	// enabled): the same CM traffic as KindContext, distinguished so
	// timelines and the verifier can see which bursts were hidden.
	KindPrefetch

	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindContext:
		return "context"
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindCompute:
		return "compute"
	case KindPrefetch:
		return "prefetch"
	}
	return fmt.Sprintf("kind(%d)", int8(k))
}

// Span is one cycle-stamped occupancy interval on a resource track.
type Span struct {
	Resource Resource
	Kind     Kind
	// Name identifies what moved or ran: a datum name for loads and
	// stores, "ctx" for context loads, the cluster label for compute.
	Name string
	// Start and End are RC-array cycle stamps, half-open [Start, End).
	Start, End int
	// Cluster, Block, Visit and Set give the schedule coordinates the
	// span belongs to (Visit indexes Schedule.Visits).
	Cluster, Block, Visit, Set int
	// Bytes is the data volume of a load/store span; Words the context
	// words of a context span; both 0 where not applicable.
	Bytes, Words int
}

// Dur returns the span's length in cycles.
func (s Span) Dur() int { return s.End - s.Start }

// MarkKind types an instantaneous event.
type MarkKind int8

const (
	// MarkFBSwitch is the RC array flipping to the other Frame Buffer
	// set at a visit boundary (the double-buffer swap).
	MarkFBSwitch MarkKind = iota
)

func (k MarkKind) String() string {
	if k == MarkFBSwitch {
		return "fb-switch"
	}
	return fmt.Sprintf("mark(%d)", int8(k))
}

// Mark is one instantaneous, cycle-stamped event.
type Mark struct {
	Kind  MarkKind
	Cycle int
	// Name labels the event (e.g. "set 0 -> 1").
	Name string
	// Visit is the visit whose start the mark decorates.
	Visit int
}

// Timeline is one schedule's recorded execution: every span and mark,
// plus the makespan they tile.
type Timeline struct {
	// Label identifies the run, e.g. "cds/MPEG".
	Label string
	// Makespan is the total execution time in cycles.
	Makespan int
	// Spans hold the occupancy intervals in emission (nondecreasing
	// start within each resource) order.
	Spans []Span
	// Marks hold the instantaneous events.
	Marks []Mark
}

// ByResource returns the timeline's spans on one resource, ordered by
// start cycle (stable for equal starts, which only zero-length spans can
// produce — and those are never emitted).
func (tl *Timeline) ByResource(r Resource) []Span {
	var out []Span
	for _, s := range tl.Spans {
		if s.Resource == r {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// startOrdered reports whether the resource's spans appear in
// nondecreasing start order in Spans, so that walking Spans visits them
// in ByResource order.
func (tl *Timeline) startOrdered(r Resource) bool {
	last := math.MinInt
	for i := range tl.Spans {
		if s := &tl.Spans[i]; s.Resource == r {
			if s.Start < last {
				return false
			}
			last = s.Start
		}
	}
	return true
}

// Busy returns the total busy cycles of one resource.
func (tl *Timeline) Busy(r Resource) int {
	n := 0
	for _, s := range tl.Spans {
		if s.Resource == r {
			n += s.Dur()
		}
	}
	return n
}

// BusyKind returns the total cycles of one span kind.
func (tl *Timeline) BusyKind(k Kind) int {
	n := 0
	for _, s := range tl.Spans {
		if s.Kind == k {
			n += s.Dur()
		}
	}
	return n
}

// Recorder accumulates spans during a simulation run. The nil *Recorder
// is the disabled state: every method short-circuits immediately, so the
// simulator's hot path carries no tracing branch cost beyond one nil
// check (pinned by BenchmarkSimRunNilRecorder).
type Recorder struct {
	spans []Span
	marks []Mark
}

// NewRecorder returns an enabled recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Grow reserves room for n more spans and m more marks, so a caller
// that can bound a recording appends without regrowing.
func (r *Recorder) Grow(n, m int) {
	if r == nil {
		return
	}
	r.spans = slices.Grow(r.spans, n)
	r.marks = slices.Grow(r.marks, m)
}

// Span records one occupancy interval. Zero-length spans are dropped —
// they occupy nothing and would break the tiling invariant's strict
// ordering.
func (r *Recorder) Span(s Span) {
	if r == nil || s.End <= s.Start {
		return
	}
	r.spans = append(r.spans, s)
}

// Mark records one instantaneous event.
func (r *Recorder) Mark(m Mark) {
	if r == nil {
		return
	}
	r.marks = append(r.marks, m)
}

// Timeline finalizes the recording into a Timeline with the given label
// and makespan. The recorder keeps its state, so a caller may finalize
// once and keep appending only by starting a fresh recorder — finalize
// is the end of a recording by convention.
func (r *Recorder) Timeline(label string, makespan int) *Timeline {
	if r == nil {
		return nil
	}
	tl := &Timeline{Label: label, Makespan: makespan}
	// Nothing recorded stays nil, with or without a Grow.
	if len(r.spans) > 0 {
		tl.Spans = r.spans
	}
	if len(r.marks) > 0 {
		tl.Marks = r.marks
	}
	return tl
}

// Tiling is one resource's verified track: busy spans in strictly
// nondecreasing, non-overlapping order, plus the derived idle gaps. Busy
// and idle together tile [0, Makespan) exactly.
type Tiling struct {
	Resource Resource
	// Busy are the occupancy spans, sorted by start.
	Busy []Span
	// Idle are the gaps between them (and before the first / after the
	// last span), as [start, end) pairs.
	Idle [][2]int
	// BusyCycles and IdleCycles sum the two sides; they add up to the
	// timeline's makespan.
	BusyCycles, IdleCycles int
}

// Tile checks the per-resource tiling invariant and derives the idle
// gaps: within each resource, spans must not overlap, must lie inside
// [0, Makespan), and together with the gaps must account for every
// cycle of the makespan. It returns one Tiling per resource that has at
// least one span, keyed by Resource.
func Tile(tl *Timeline) (map[Resource]*Tiling, error) {
	if tl == nil {
		return nil, fmt.Errorf("trace: nil timeline")
	}
	out := map[Resource]*Tiling{}
	for r := Resource(0); r < numResources; r++ {
		spans := tl.ByResource(r)
		if len(spans) == 0 {
			continue
		}
		w := tiler{tl: tl, r: r, t: &Tiling{Resource: r, Busy: spans}}
		for _, s := range spans {
			if err := w.add(s); err != nil {
				return nil, err
			}
		}
		if err := w.finish(); err != nil {
			return nil, err
		}
		out[r] = w.t
	}
	return out, nil
}

// CheckTiling checks Tile's invariant, with Tile's errors, without
// building the tilings. A resource's spans already in start order (as
// the simulator records them) are checked in place, without copying.
func CheckTiling(tl *Timeline) error {
	if tl == nil {
		return fmt.Errorf("trace: nil timeline")
	}
	for r := Resource(0); r < numResources; r++ {
		spans := tl.Spans
		if !tl.startOrdered(r) {
			spans = tl.ByResource(r)
		}
		w := tiler{tl: tl, r: r}
		for _, s := range spans {
			if s.Resource != r {
				continue
			}
			if err := w.add(s); err != nil {
				return err
			}
		}
		if w.n > 0 {
			if err := w.finish(); err != nil {
				return err
			}
		}
	}
	return nil
}

// tiler walks one resource's spans in start order, checking the tiling
// invariant. With a Tiling it also records the idle gaps and totals.
type tiler struct {
	tl *Timeline
	r  Resource
	t  *Tiling // nil: check only
	// n counts the spans seen; cursor is the end of the last one.
	n, cursor  int
	busy, idle int
}

func (w *tiler) add(s Span) error {
	if s.Start < 0 || s.End > w.tl.Makespan {
		return fmt.Errorf("trace: %s span %d (%s %q [%d,%d)) outside makespan %d",
			w.r, w.n, s.Kind, s.Name, s.Start, s.End, w.tl.Makespan)
	}
	if s.Start < w.cursor {
		return fmt.Errorf("trace: %s span %d (%s %q [%d,%d)) overlaps previous span ending at %d",
			w.r, w.n, s.Kind, s.Name, s.Start, s.End, w.cursor)
	}
	w.gap(s.Start)
	w.busy += s.Dur()
	w.cursor = s.End
	w.n++
	return nil
}

// gap accounts the idle time from the cursor up to cycle end.
func (w *tiler) gap(end int) {
	if end <= w.cursor {
		return
	}
	if w.t != nil {
		w.t.Idle = append(w.t.Idle, [2]int{w.cursor, end})
	}
	w.idle += end - w.cursor
}

func (w *tiler) finish() error {
	w.gap(w.tl.Makespan)
	if w.busy+w.idle != w.tl.Makespan {
		return fmt.Errorf("trace: %s busy %d + idle %d != makespan %d",
			w.r, w.busy, w.idle, w.tl.Makespan)
	}
	if w.t != nil {
		w.t.BusyCycles, w.t.IdleCycles = w.busy, w.idle
	}
	return nil
}
