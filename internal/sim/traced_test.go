package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cds/internal/app"
	"cds/internal/arch"
	"cds/internal/core"
	"cds/internal/scherr"
	"cds/internal/trace"
	"cds/internal/workloads"
)

// TestTracedIdenticalToUntraced is the subsystem's conservativeness
// guarantee: recording a timeline must not change the simulation. Run,
// RunTraced and Trace share one walk, and this pins their results
// byte-identical across the Table 1 rows and GenSpec(1, 0..199), for
// every scheduler (the verifier's serialization check reads Trace's
// result).
func TestTracedIdenticalToUntraced(t *testing.T) {
	type row struct {
		name string
		p    arch.Params
		part *app.Partition
	}
	var rows []row
	for _, e := range workloads.All() {
		rows = append(rows, row{e.Name, e.Arch, e.Part})
	}
	for i := 0; i < 200; i++ {
		part, p, err := workloads.GenSpec(1, i).Build()
		if err != nil {
			t.Fatalf("GenSpec(1, %d): %v", i, err)
		}
		rows = append(rows, row{fmt.Sprintf("spec/%03d", i), p, part})
	}
	for _, e := range rows {
		for _, sched := range []core.Scheduler{core.Basic{}, core.DataScheduler{}, core.CompleteDataScheduler{}} {
			s, err := sched.Schedule(e.p, e.part)
			if errors.Is(err, scherr.ErrInfeasible) {
				continue
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", e.name, sched.Name(), err)
			}
			plain, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			rec := trace.NewRecorder()
			traced, err := RunTraced(s, rec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, traced) {
				t.Errorf("%s/%s: traced result differs:\nplain:  %+v\ntraced: %+v",
					e.name, sched.Name(), plain, traced)
			}
			// And a nil recorder through RunTraced is exactly Run.
			nilTraced, err := RunTraced(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, nilTraced) {
				t.Errorf("%s/%s: nil-recorder result differs", e.name, sched.Name())
			}
			fromTrace, _, err := Trace(s)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, fromTrace) {
				t.Errorf("%s/%s: Trace result differs:\nplain: %+v\ntrace: %+v",
					e.name, sched.Name(), plain, fromTrace)
			}
		}
	}
}

// TestTimelineAgreesWithResult pins the exactness of the recorded spans:
// per-resource busy totals equal the simulator's accounting, the spans
// tile the makespan, and the analytics decomposition adds up.
func TestTimelineAgreesWithResult(t *testing.T) {
	for _, e := range workloads.All() {
		for _, sched := range []core.Scheduler{core.Basic{}, core.DataScheduler{}, core.CompleteDataScheduler{}} {
			s, err := sched.Schedule(e.Arch, e.Part)
			if err != nil {
				t.Fatalf("%s/%s: %v", e.Name, sched.Name(), err)
			}
			r, tl, err := Trace(s)
			if err != nil {
				t.Fatal(err)
			}
			name := e.Name + "/" + sched.Name()
			if tl.Label != s.Scheduler {
				t.Errorf("%s: label %q, want %q", name, tl.Label, s.Scheduler)
			}
			if tl.Makespan != r.TotalCycles {
				t.Errorf("%s: makespan %d != total %d", name, tl.Makespan, r.TotalCycles)
			}
			if got := tl.Busy(trace.DMA); got != r.DMABusy() {
				t.Errorf("%s: DMA busy %d != result %d", name, got, r.DMABusy())
			}
			if got := tl.Busy(trace.RCArray); got != r.ComputeCycles {
				t.Errorf("%s: RC busy %d != compute %d", name, got, r.ComputeCycles)
			}
			if got := tl.BusyKind(trace.KindContext); got != r.CtxCycles {
				t.Errorf("%s: ctx span cycles %d != result %d", name, got, r.CtxCycles)
			}
			if got := tl.BusyKind(trace.KindLoad) + tl.BusyKind(trace.KindStore); got != r.DataCycles {
				t.Errorf("%s: data span cycles %d != result %d", name, got, r.DataCycles)
			}
			if _, err := trace.Tile(tl); err != nil {
				t.Errorf("%s: spans do not tile: %v", name, err)
			}
			a := trace.Analyze(tl)
			if sum := a.Path.Compute + a.Path.ExposedCtx + a.Path.ExposedLoad +
				a.Path.ExposedStore + a.Path.Dead; sum != r.TotalCycles {
				t.Errorf("%s: decomposition %d != makespan %d", name, sum, r.TotalCycles)
			}
			// Volumes carried on spans match the result's accounting.
			loadB, storeB, ctxW := 0, 0, 0
			for _, sp := range tl.Spans {
				switch sp.Kind {
				case trace.KindLoad:
					loadB += sp.Bytes
				case trace.KindStore:
					storeB += sp.Bytes
				case trace.KindContext:
					ctxW += sp.Words
				}
			}
			if loadB != r.LoadBytes || storeB != r.StoreBytes || ctxW != r.CtxWords {
				t.Errorf("%s: span volumes %d/%d/%d != result %d/%d/%d",
					name, loadB, storeB, ctxW, r.LoadBytes, r.StoreBytes, r.CtxWords)
			}
		}
	}
}

// TestTraceMarksFBSwitches checks set-switch marks land on compute
// starts of visits whose set differs from the previous visit's.
func TestTraceMarksFBSwitches(t *testing.T) {
	e := workloads.MPEG()
	s, err := (core.CompleteDataScheduler{}).Schedule(e.Arch, e.Part)
	if err != nil {
		t.Fatal(err)
	}
	r, tl, err := Trace(s)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for vi := 1; vi < s.NumVisits(); vi++ {
		if s.Visit(vi).Set != s.Visit(vi-1).Set {
			want++
		}
	}
	got := 0
	for _, m := range tl.Marks {
		if m.Kind != trace.MarkFBSwitch {
			continue
		}
		got++
		if m.Visit <= 0 || m.Visit >= s.NumVisits() {
			t.Fatalf("mark visit %d out of range", m.Visit)
		}
		if m.Cycle != r.VisitStart[m.Visit] {
			t.Errorf("mark at %d, visit %d computes at %d", m.Cycle, m.Visit, r.VisitStart[m.Visit])
		}
	}
	if got != want {
		t.Errorf("%d FB switch marks, want %d", got, want)
	}
	if want == 0 {
		t.Fatal("MPEG/cds schedule has no set switches; test is vacuous")
	}
}

// TestChromeExportMatchesResult parses the Chrome export of a recorded
// timeline back and checks its compute, DMA and makespan sums against
// the simulator's accounting.
func TestChromeExportMatchesResult(t *testing.T) {
	e := workloads.MPEG()
	s, err := (core.CompleteDataScheduler{}).Schedule(e.Arch, e.Part)
	if err != nil {
		t.Fatal(err)
	}
	r, tl, err := Trace(s)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := trace.WriteChrome(&b, tl); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat   string `json:"cat"`
			Phase string `json:"ph"`
			TS    int    `json:"ts"`
			Dur   int    `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var compute, dma int
	maxEnd := 0
	for _, ev := range doc.TraceEvents {
		if ev.Phase != "X" {
			continue
		}
		if ev.TS < 0 || ev.Dur < 0 {
			t.Fatalf("negative interval: %+v", ev)
		}
		switch ev.Cat {
		case "compute":
			compute += ev.Dur
		case "context", "load", "store":
			dma += ev.Dur
		}
		if end := ev.TS + ev.Dur; end > maxEnd {
			maxEnd = end
		}
	}
	if compute != r.ComputeCycles {
		t.Errorf("trace compute %d != result %d", compute, r.ComputeCycles)
	}
	if dma != r.DMABusy() {
		t.Errorf("trace DMA %d != result %d", dma, r.DMABusy())
	}
	if maxEnd != r.TotalCycles {
		t.Errorf("trace ends at %d, result says %d", maxEnd, r.TotalCycles)
	}
}

func TestTraceErrors(t *testing.T) {
	if _, _, err := Trace(nil); err == nil {
		t.Error("nil schedule accepted")
	}
	s := handSchedule()
	s.Arch.BusBytes = 0
	if _, _, err := Trace(s); err == nil {
		t.Error("invalid arch accepted")
	}
}

// TestRunAllocs pins the "nil recorder costs nothing" claim: untraced
// Run on the MPEG CDS schedule allocates only its result and its two
// per-visit interval slices, never per visit or per span.
func TestRunAllocs(t *testing.T) {
	e := workloads.MPEG()
	s, err := (core.CompleteDataScheduler{}).Schedule(e.Arch, e.Part)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Run(s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Errorf("Run makes %.0f allocations, want <= 6", allocs)
	}
}

// BenchmarkRunTracedNil pins the disabled-tracing cost: RunTraced with a
// nil recorder must track BenchmarkRun (the nil receiver short-circuits
// every recording call).
func BenchmarkRunTracedNil(b *testing.B) {
	e := workloads.MPEG()
	s, err := (core.CompleteDataScheduler{}).Schedule(e.Arch, e.Part)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunTraced(s, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunTraced measures the enabled-tracing cost for comparison.
func BenchmarkRunTraced(b *testing.B) {
	e := workloads.MPEG()
	s, err := (core.CompleteDataScheduler{}).Schedule(e.Arch, e.Part)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunTraced(s, trace.NewRecorder()); err != nil {
			b.Fatal(err)
		}
	}
}
