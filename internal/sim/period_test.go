package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"cds/internal/app"
	"cds/internal/arch"
	"cds/internal/core"
	"cds/internal/workloads"
)

// candidates returns the schedules of Basic and of every feasible RF
// candidate of DS, CDS and CDS with cross-set reuse on one input. An
// evaluator that scores every candidate above any DMA demand makes the
// RF guard build and score them all.
func candidates(pa arch.Params, part *app.Partition) []*core.Schedule {
	var out []*core.Schedule
	if s, err := (core.Basic{}).Schedule(pa, part); err == nil {
		out = append(out, s)
	}
	var scored []*core.Schedule
	record := func(s *core.Schedule) (int, error) {
		scored = append(scored, s)
		return math.MaxInt, nil
	}
	for _, sched := range []core.Scheduler{core.DataScheduler{Eval: record}, core.CompleteDataScheduler{Eval: record},
		core.CompleteDataScheduler{Eval: record, CrossSetReuse: true}} {
		scored = scored[:0]
		s, err := sched.Schedule(pa, part)
		if err != nil {
			continue
		}
		if len(scored) == 0 {
			scored = append(scored, s) // RF-max is 1: no guard
		}
		out = append(out, scored...)
	}
	return out
}

// corpus returns every candidate schedule of Table 1, GenSpec(1,
// 0..543) and the pinned regressions, each named by its input.
func corpus(t *testing.T) (names []string, scheds []*core.Schedule) {
	t.Helper()
	var inputs []workloads.Experiment
	for _, e := range workloads.All() {
		inputs = append(inputs, e)
	}
	for i := 0; i < 544; i++ {
		part, p, err := workloads.GenSpec(1, i).Build()
		if err != nil {
			t.Fatalf("GenSpec(1, %d): %v", i, err)
		}
		inputs = append(inputs, workloads.Experiment{Name: fmt.Sprintf("spec/%03d", i), Arch: p, Part: part})
	}
	for _, sp := range workloads.Regressions() {
		part, p, err := sp.Build()
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		inputs = append(inputs, workloads.Experiment{Name: sp.Name, Arch: p, Part: part})
	}
	for _, e := range inputs {
		for _, s := range candidates(e.Arch, e.Part) {
			names = append(names, fmt.Sprintf("%s/%s RF %d", e.Name, s.Scheduler, s.RF))
			scheds = append(scheds, s)
		}
	}
	return names, scheds
}

// walkStatic walks s alone on the static machine, unrecorded, as Run
// does (RunSerial with oneSet), and returns the number of visits the
// walk ran.
func walkStatic(s *core.Schedule, oneSet bool) int {
	l := newLane(s)
	l.oneSet = oneSet
	lanes := []lane{l}
	walk(lanes, []TenantSlice{{N: s.NumVisits()}}, static, nil, nil)
	return lanes[0].walked
}

// TestFastForwardWalksUnderHalf: over the corpus, the walks of Run and
// RunSerial run under half of the blocks each (TestEntryPointsMatchExplicit
// checks their results).
func TestFastForwardWalksUnderHalf(t *testing.T) {
	_, scheds := corpus(t)
	for _, oneSet := range []bool{false, true} {
		walked, blocks := 0, 0
		for _, s := range scheds {
			visits := walkStatic(s, oneSet)
			nc := len(s.P.Clusters)
			walked += visits / nc
			blocks += s.NumVisits() / nc
		}
		t.Logf("%d schedules, one set %v: the walk ran %d of %d blocks", len(scheds), oneSet, walked, blocks)
		if walked*2 > blocks {
			t.Errorf("one set %v: the walk ran %d of %d blocks; want under half", oneSet, walked, blocks)
		}
	}
}

// TestEntryPointsMatchExplicit: over the corpus, every entry point gives
// the same result, and the traced ones the same timeline, for a schedule
// as for its visits listed explicitly.
func TestEntryPointsMatchExplicit(t *testing.T) {
	names, scheds := corpus(t)
	same := func(name, entry string, got, want any, err, werr error) {
		t.Helper()
		if err != nil || werr != nil {
			t.Fatalf("%s: %s: %v / %v", name, entry, err, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s: period form %+v; explicit %+v", name, entry, got, want)
		}
	}
	for i, s := range scheds {
		name := names[i]
		e := s.WithVisits(s.Visits())

		r, err := Run(s)
		w, werr := Run(e)
		same(name, "Run", r, w, err, werr)

		r, tl, err := Trace(s)
		w, wtl, werr := Trace(e)
		same(name, "Trace", r, w, err, werr)
		same(name, "Trace timeline", tl, wtl, nil, nil)

		r, err = RunSerial(s)
		w, werr = RunSerial(e)
		same(name, "RunSerial", r, w, err, werr)

		// Ready cycles and context working sets that make some visits
		// wait and some hoists fail.
		sv := make([]StreamVisit, s.NumVisits())
		for vi := range sv {
			v := s.Visit(vi)
			sv[vi] = StreamVisit{Ready: vi * 37 % 500, GroupWords: v.CtxWords * (1 + vi%3)}
		}
		for _, prefetch := range []bool{false, true} {
			o := StreamOpts{Visits: sv, Prefetch: prefetch}
			r, err = RunStream(s, o)
			w, werr = RunStream(e, o)
			same(name, fmt.Sprintf("RunStream prefetch %v", prefetch), r, w, err, werr)
		}

		// One lane arriving late, in one slice (which fast-forwards) and
		// in slices of 1, 2, 4, ... visits.
		n := s.NumVisits()
		sliced := []TenantSlice{}
		for first, size := 0, 1; first < n; first, size = first+size, 2*size {
			sliced = append(sliced, TenantSlice{First: first, N: min(size, n-first)})
		}
		for _, order := range [][]TenantSlice{{{N: n}}, sliced} {
			tr, err := RunTenants([]*core.Schedule{s}, []int{123}, order)
			tw, werr := RunTenants([]*core.Schedule{e}, []int{123}, order)
			same(name, fmt.Sprintf("RunTenants in %d slices", len(order)), tr, tw, err, werr)
		}
	}
}
