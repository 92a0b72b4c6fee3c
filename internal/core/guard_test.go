package core_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"cds/internal/app"
	"cds/internal/arch"
	"cds/internal/core"
	"cds/internal/scherr"
	"cds/internal/workloads"
)

// guardCase is one scheduler with an RF guard on one corpus input.
type guardCase struct {
	name  string
	sched func(core.TimingEvaluator) core.Scheduler
	arch  arch.Params
	part  *app.Partition
}

// guardCorpus returns DS and CDS, the latter with cross-set reuse off and
// on, over the Table 1 rows and GenSpec(1, 0..543).
func guardCorpus(t *testing.T) []guardCase {
	t.Helper()
	scheds := []struct {
		name string
		make func(core.TimingEvaluator) core.Scheduler
	}{
		{"ds", func(e core.TimingEvaluator) core.Scheduler { return core.DataScheduler{Eval: e} }},
		{"cds", func(e core.TimingEvaluator) core.Scheduler { return core.CompleteDataScheduler{Eval: e} }},
		{"cds-xset", func(e core.TimingEvaluator) core.Scheduler {
			return core.CompleteDataScheduler{Eval: e, CrossSetReuse: true}
		}},
	}
	var cases []guardCase
	add := func(name string, pa arch.Params, part *app.Partition) {
		for _, s := range scheds {
			cases = append(cases, guardCase{name + "/" + s.name, s.make, pa, part})
		}
	}
	for _, e := range workloads.All() {
		add("table1/"+e.Name, e.Arch, e.Part)
	}
	for i := 0; i < 544; i++ {
		part, p, err := workloads.GenSpec(1, i).Build()
		if err != nil {
			t.Fatalf("GenSpec(1, %d): %v", i, err)
		}
		add(fmt.Sprintf("spec/%03d", i), p, part)
	}
	return cases
}

// demandOf is a schedule's DMA demand counted from its visits: the
// context cycles of its context words plus the data cycles of each load
// and store.
func demandOf(s *core.Schedule) int {
	n := s.Arch.ContextCycles(s.TotalCtxWords())
	for _, v := range s.Visits() {
		for _, m := range v.Loads {
			n += s.Arch.DataCycles(m.Bytes)
		}
		for _, m := range v.Stores {
			n += s.Arch.DataCycles(m.Bytes)
		}
	}
	return n
}

// referenceGuard is the RF guard without pruning: it scores every
// candidate, RF-max first, and keeps the first fastest one.
func referenceGuard(t *testing.T, cands []core.GuardCandidate, eval core.TimingEvaluator) *core.Schedule {
	t.Helper()
	var best *core.Schedule
	bestT := 0
	for _, c := range cands {
		v, err := eval(c.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		if best == nil || v < bestT {
			best, bestT = c.Schedule, v
		}
	}
	return best
}

// guardCandidates returns gc's candidates, or nil when the scheduler
// cannot run the input at all, which the guarded scheduler must agree
// with.
func guardCandidates(t *testing.T, gc guardCase, eval core.TimingEvaluator) []core.GuardCandidate {
	t.Helper()
	cands, err := core.GuardCandidates(gc.sched(nil), gc.arch, gc.part)
	if err != nil {
		if !errors.Is(err, scherr.ErrInfeasible) {
			t.Fatalf("%s: %v", gc.name, err)
		}
		if _, serr := gc.sched(eval).Schedule(gc.arch, gc.part); fmt.Sprint(serr) != fmt.Sprint(err) {
			t.Fatalf("%s: guarded scheduler error %v, candidates error %v", gc.name, serr, err)
		}
		return nil
	}
	return cands
}

// TestGuardDemandIsALowerBound: on every feasible RF of every corpus
// input, the summary walk's demand equals the DMA demand of the schedule
// the build makes, and the simulated makespan is never below it. The
// guard, which skips any candidate whose demand reaches the best time so
// far, picks the schedule a reference loop scoring every candidate picks.
func TestGuardDemandIsALowerBound(t *testing.T) {
	total, lower, pruned := 0, 0, 0
	for _, gc := range guardCorpus(t) {
		cands := guardCandidates(t, gc, simEval)
		if cands == nil {
			continue
		}
		best := 0
		for i, c := range cands {
			if got := demandOf(c.Schedule); c.Demand != got {
				t.Fatalf("%s RF=%d: summary demand %d, built schedule's %d", gc.name, c.RF, c.Demand, got)
			}
			cycles, err := simEval(c.Schedule)
			if err != nil {
				t.Fatalf("%s RF=%d: %v", gc.name, c.RF, err)
			}
			if cycles < c.Demand {
				t.Fatalf("%s RF=%d: makespan %d below the DMA demand %d", gc.name, c.RF, cycles, c.Demand)
			}
			total++
			if i == 0 {
				best = cycles
				continue
			}
			lower++
			if c.Demand >= best {
				pruned++
			}
			best = min(best, cycles)
		}
		want := referenceGuard(t, cands, simEval)
		got, err := gc.sched(simEval).Schedule(gc.arch, gc.part)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		if got.RF != want.RF || !reflect.DeepEqual(got.Retained, want.Retained) || !reflect.DeepEqual(got.Visits(), want.Visits()) {
			t.Fatalf("%s: guard picks RF %d %v, reference RF %d %v", gc.name, got.RF, got.Retained, want.RF, want.Retained)
		}
	}
	t.Logf("%d candidates, %d below RF-max, %d of them pruned", total, lower, pruned)
	if pruned == 0 || pruned == lower {
		t.Errorf("pruned %d of %d lower candidates; want some but not all, or the parity above is vacuous", pruned, lower)
	}
}

// TestDMACostGuardPicksCheapestRF: scored by DMACost, the guard returns
// the lowest DMA cost among every feasible RF's candidate, and of the
// candidates that tie on it the highest RF, the paper's preference. Ties
// occur. On GenSpec(1, 75), (1, 268), (1, 303) and (1, 417), CDS with
// cross-set reuse off and on, the cheapest cost is below RF-max's and a
// lower RF shares it, so a rule keeping the lowest tied RF would pick a
// different schedule at the same cost.
func TestDMACostGuardPicksCheapestRF(t *testing.T) {
	ties := 0
	for _, gc := range guardCorpus(t) {
		cands := guardCandidates(t, gc, core.DMACost)
		if cands == nil {
			continue
		}
		want := cands[0] // RF-max first, so the first cheapest is the highest RF
		for _, c := range cands[1:] {
			if c.Demand < want.Demand {
				want = c
			}
		}
		for _, c := range cands {
			if c.RF < want.RF && c.Demand == want.Demand {
				ties++
				break
			}
		}
		got, err := gc.sched(core.DMACost).Schedule(gc.arch, gc.part)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		if cost, _ := core.DMACost(got); got.RF != want.RF || cost != want.Demand {
			t.Fatalf("%s: guard picks RF %d at DMA cost %d, want RF %d at %d", gc.name, got.RF, cost, want.RF, want.Demand)
		}
	}
	if ties == 0 {
		t.Error("no corpus input has a lower RF tying the cheapest; the tie rule goes unchecked")
	}
}

// TestGuardKeepsATightCandidate: a candidate whose time equals its DMA
// demand and beats the best so far by one cycle is scored and kept. The
// evaluator makes each lower RF cost exactly its demand, and RF-max one
// cycle more than the cheapest of them (never below its own demand).
func TestGuardKeepsATightCandidate(t *testing.T) {
	checked := 0
	for _, gc := range guardCorpus(t) {
		cands := guardCandidates(t, gc, simEval)
		if len(cands) < 2 {
			continue
		}
		cheapest := cands[1].Demand
		for _, c := range cands[2:] {
			cheapest = min(cheapest, c.Demand)
		}
		top := cands[0]
		eval := func(s *core.Schedule) (int, error) {
			if s.RF == top.RF {
				return max(top.Demand, cheapest+1), nil
			}
			return demandOf(s), nil
		}
		want := referenceGuard(t, cands, eval)
		got, err := gc.sched(eval).Schedule(gc.arch, gc.part)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		if got.RF != want.RF || !reflect.DeepEqual(got.Retained, want.Retained) {
			t.Fatalf("%s: guard picks RF %d, reference RF %d", gc.name, got.RF, want.RF)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no corpus input has an RF below its maximum")
	}
}

// TestGuardHonoursCancellation: a request canceled during the RF guard
// stops before its next candidate instead of building and scoring every
// RF.
func TestGuardHonoursCancellation(t *testing.T) {
	e := workloads.MPEG()
	for _, mk := range []func(core.TimingEvaluator) core.Scheduler{
		func(ev core.TimingEvaluator) core.Scheduler { return core.DataScheduler{Eval: ev} },
		func(ev core.TimingEvaluator) core.Scheduler { return core.CompleteDataScheduler{Eval: ev} },
	} {
		if cands, err := core.GuardCandidates(mk(nil), e.Arch, e.Part); err != nil || len(cands) < 2 {
			t.Fatalf("%s: %d candidates (%v); the test needs an RF below the maximum", mk(nil).Name(), len(cands), err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		eval := func(s *core.Schedule) (int, error) {
			calls++
			cancel()
			return simEval(s)
		}
		s, err := mk(eval).ScheduleCtx(ctx, e.Arch, e.Part)
		cancel()
		if !errors.Is(err, scherr.ErrCanceled) || s != nil {
			t.Errorf("%s: canceled guard returned %v, %v; want scherr.ErrCanceled", mk(nil).Name(), s, err)
		}
		if calls != 1 {
			t.Errorf("%s: evaluator ran %d times after the cancel; want 1 call in all", mk(nil).Name(), calls)
		}
	}
}
