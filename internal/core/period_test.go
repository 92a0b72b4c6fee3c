package core_test

// The period oracle: a schedule stored as its period (core.Period) and
// the same schedule stored as its explicit expansion (WithVisits over
// Visits) must give identical results everywhere the compare path reads
// the period directly: sim.Run, DMACost, the Total* methods and the
// summary Allocate reports.

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"cds/internal/arch"
	"cds/internal/core"
	"cds/internal/sim"
	"cds/internal/workloads"
)

// periodCorpus returns Basic and every feasible RF-guard candidate of DS,
// CDS and CDS with cross-set reuse over Table 1, GenSpec(1, 0..543) and
// the pinned regressions.
func periodCorpus(t *testing.T) (names []string, scheds []*core.Schedule) {
	t.Helper()
	for _, gc := range guardCorpus(t) {
		cands, err := core.GuardCandidates(gc.sched(nil), gc.arch, gc.part)
		if err != nil {
			continue // infeasible
		}
		for _, c := range cands {
			names = append(names, fmt.Sprintf("%s/rf=%d", gc.name, c.RF))
			scheds = append(scheds, c.Schedule)
		}
	}
	add := func(name string, pa arch.Params, e workloads.Experiment) {
		if s, err := (core.Basic{}).Schedule(pa, e.Part); err == nil {
			names = append(names, name+"/basic")
			scheds = append(scheds, s)
		}
	}
	for _, e := range workloads.All() {
		add("table1/"+e.Name, e.Arch, e)
	}
	for i := 0; i < 544; i++ {
		part, p, err := workloads.GenSpec(1, i).Build()
		if err != nil {
			t.Fatalf("GenSpec(1, %d): %v", i, err)
		}
		add(fmt.Sprintf("spec/%03d", i), p, workloads.Experiment{Part: part})
	}
	for _, sp := range workloads.Regressions() {
		part, p, err := sp.Build()
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		add(sp.Name, p, workloads.Experiment{Part: part})
		for _, sched := range []core.Scheduler{core.DataScheduler{}, core.CompleteDataScheduler{},
			core.CompleteDataScheduler{CrossSetReuse: true}} {
			cands, err := core.GuardCandidates(sched, p, part)
			if err != nil {
				continue
			}
			for _, c := range cands {
				names = append(names, fmt.Sprintf("%s/%s/rf=%d", sp.Name, sched.Name(), c.RF))
				scheds = append(scheds, c.Schedule)
			}
		}
	}
	return names, scheds
}

// checkPeriod fails unless s and its explicit form agree on every result
// the compare path reads from the period.
func checkPeriod(t *testing.T, name string, s *core.Schedule) {
	t.Helper()
	e := s.WithVisits(s.Visits())
	if ep := e.Period(); ep.Len != 0 || len(ep.Visits) != s.NumVisits() {
		t.Fatalf("%s: explicit form stores %d visits with a steady block of %d; want all %d explicit",
			name, len(ep.Visits), ep.Len, s.NumVisits())
	}

	pr, perr := sim.Run(s)
	er, eerr := sim.Run(e)
	if fmt.Sprint(perr) != fmt.Sprint(eerr) || !reflect.DeepEqual(pr, er) {
		t.Fatalf("%s: sim.Run on the period %+v (%v), on the expansion %+v (%v)", name, pr, perr, er, eerr)
	}

	pc, _ := core.DMACost(s)
	ec, _ := core.DMACost(e)
	if pc != ec {
		t.Fatalf("%s: DMACost %d on the period, %d on the expansion", name, pc, ec)
	}
	for _, tot := range []struct {
		name string
		f    func(*core.Schedule) int
	}{
		{"TotalLoadBytes", (*core.Schedule).TotalLoadBytes},
		{"TotalStoreBytes", (*core.Schedule).TotalStoreBytes},
		{"TotalCtxWords", (*core.Schedule).TotalCtxWords},
		{"TotalComputeCycles", (*core.Schedule).TotalComputeCycles},
	} {
		if p, x := tot.f(s), tot.f(e); p != x {
			t.Fatalf("%s: %s %d on the period, %d on the expansion", name, tot.name, p, x)
		}
	}

	if s.P == nil {
		return // a machine-only schedule has no application to allocate
	}
	for _, split := range []bool{true, false} {
		prep, perr := core.Allocate(s, split)
		erep, eerr := core.Allocate(e, split)
		if fmt.Sprint(perr) != fmt.Sprint(eerr) || !maps.Equal(prep.PeakUsed, erep.PeakUsed) ||
			prep.Splits != erep.Splits || prep.Regular != erep.Regular ||
			!slices.Equal(prep.IrregularObjects, erep.IrregularObjects) {
			t.Fatalf("%s: split=%v: Allocate on the period %v/%d/%v/%v (%v), on the expansion %v/%d/%v/%v (%v)",
				name, split, prep.PeakUsed, prep.Splits, prep.Regular, prep.IrregularObjects, perr,
				erep.PeakUsed, erep.Splits, erep.Regular, erep.IrregularObjects, eerr)
		}
	}
}

// TestPeriodMatchesExplicit runs the oracle over the corpus. The build
// stores under half of the corpus's blocks.
func TestPeriodMatchesExplicit(t *testing.T) {
	names, scheds := periodCorpus(t)
	stored, blocks, steady := 0, 0, 0
	for i, s := range scheds {
		checkPeriod(t, names[i], s)
		nc := len(s.P.Clusters)
		per := s.Period()
		stored += len(per.Visits) / nc
		blocks += s.NumVisits() / nc
		if per.Len > 0 {
			steady++
		}
	}
	t.Logf("%d schedules, %d with a steady block; the build stored %d of %d blocks", len(scheds), steady, stored, blocks)
	if stored*2 > blocks {
		t.Errorf("the build stored %d of %d blocks; want under half", stored, blocks)
	}
}

// mpegCDSPeriod returns the MPEG CDS schedule (RF 2, fifteen blocks) and
// its period: block 0 leads and block 1 is steady for fourteen runs.
func mpegCDSPeriod(t *testing.T) (*core.Schedule, core.Period) {
	t.Helper()
	s := mpegCDS(t)
	per := s.Period()
	if per.Lead != len(s.P.Clusters) || per.Len != len(s.P.Clusters) || per.Repeat != 14 || len(per.Visits) != per.Lead+per.Len {
		t.Fatalf("MPEG CDS period: lead %d, steady %d x %d of %d stored visits; want one block each, 14 runs",
			per.Lead, per.Len, per.Repeat, len(per.Visits))
	}
	return s, per
}

// TestPeriodRaggedTail: a period whose last run is cut to a one-iteration
// tail block, its transfers and compute scaled to match.
func TestPeriodRaggedTail(t *testing.T) {
	s, per := mpegCDSPeriod(t)
	tail := slices.Clone(per.Visits[per.Lead:])
	for i := range tail {
		v := &tail[i]
		v.Block += per.Repeat - 1
		for _, ms := range []*[]core.Movement{&v.Loads, &v.Stores} {
			*ms = slices.Clone(*ms)
			for j := range *ms {
				(*ms)[j].Bytes /= v.Iters
			}
		}
		v.ComputeCycles /= v.Iters
		v.Iters = 1
	}
	per.Visits = slices.Concat(per.Visits, tail)
	per.Repeat--
	checkPeriod(t, "MPEG/cds/ragged-tail", core.WithPeriod(s, per))
}

// TestPeriodTimingNeverSettles: on a three-set machine this steady block
// takes more runs to settle into a fixed shift than it has, so no two
// consecutive runs start from the same relative state and the walk finds
// nothing to fast-forward; the period must still match its expansion.
func TestPeriodTimingNeverSettles(t *testing.T) {
	v := func(set, block, ctx, load, store, compute int) core.Visit {
		vis := core.Visit{Set: set, Block: block, Iters: 1, CtxWords: ctx, ComputeCycles: compute}
		if load > 0 {
			vis.Loads = []core.Movement{{Datum: "a", Bytes: load}}
		}
		if store > 0 {
			vis.Stores = []core.Movement{{Datum: "r", Bytes: store}}
		}
		return vis
	}
	const runs = 5
	per := core.Period{Visits: []core.Visit{
		v(0, 0, 32, 224, 216, 85), v(2, 0, 32, 280, 0, 158), v(1, 0, 0, 72, 112, 60),
		v(1, runs, 0, 80, 208, 107),
	}, Len: 3, Repeat: runs}
	s := core.WithPeriod(&core.Schedule{Scheduler: "hand", Arch: arch.M1()}, per)
	checkPeriod(t, "hand/never-settles", s)

	res, err := sim.Run(s.WithVisits(s.Visits()))
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k+1 < runs; k++ {
		settled := true
		for j := range per.Len {
			i := (k-1)*per.Len + j
			if res.VisitStart[i+per.Len]-res.VisitStart[i] != res.VisitStart[i+2*per.Len]-res.VisitStart[i+per.Len] {
				settled = false
			}
		}
		if settled {
			t.Fatalf("runs %d and %d shift alike: the timing settles", k, k+1)
		}
	}
}

// TestPeriodBasicResetsContextMemory: the Basic Scheduler reloads every
// visit's contexts, so the Context Memory state a block starts from never
// matters and block 0 is already steady. The same schedule with block 0
// stored as a leading block gives the same results.
func TestPeriodBasicResetsContextMemory(t *testing.T) {
	e := workloads.MPEG()
	s, err := (core.Basic{}).Schedule(e.Arch, e.Part)
	if err != nil {
		t.Fatal(err)
	}
	per := s.Period()
	nc := len(s.P.Clusters)
	if per.Lead != 0 || per.Len != nc || per.Repeat != s.P.App.Iterations || len(per.Visits) != nc {
		t.Fatalf("Basic MPEG period: lead %d, steady %d x %d of %d stored visits; want block 0 steady for all %d",
			per.Lead, per.Len, per.Repeat, len(per.Visits), s.P.App.Iterations)
	}
	checkPeriod(t, "MPEG/basic", s)

	led := per
	next := slices.Clone(per.Visits)
	for i := range next {
		next[i].Block++
	}
	led.Visits = slices.Concat(per.Visits, next)
	led.Lead, led.Repeat = nc, per.Repeat-1
	l := core.WithPeriod(s, led)
	if !reflect.DeepEqual(l.Visits(), s.Visits()) {
		t.Fatal("the led period expands to another schedule")
	}
	checkPeriod(t, "MPEG/basic/led", l)

	ds, err := (core.DataScheduler{}).Schedule(e.Arch, e.Part)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Period().Lead == 0 {
		t.Error("DS on MPEG is steady from block 0; want a leading block 0, whose Context Memory starts empty")
	}
}

// TestValidatePeriodMatchesExplicit: ValidateSchedule walks only steady
// runs 0, 1 and the last of a period, and must still give the verdict
// and text of the expansion. Over the corpus it checks each schedule, the
// same period stored with a steady run of two blocks (runs 0 and 1 then
// disagree on where a run starts, which the runs between repeat), and,
// for a schedule with a shorter tail block, the period whose steady block
// also claims the tail (only its last run then runs too many
// iterations).
func TestValidatePeriodMatchesExplicit(t *testing.T) {
	names, scheds := periodCorpus(t)
	same := func(name string, s *core.Schedule) error {
		t.Helper()
		err := core.ValidateSchedule(s)
		if werr := core.ValidateSchedule(s.WithVisits(s.Visits())); fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("%s: ValidateSchedule on the period %v, on the expansion %v", name, err, werr)
		}
		return err
	}
	doubled, claimed := 0, 0
	for i, s := range scheds {
		if err := same(names[i], s); err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		per := s.Period()
		if per.Len == 0 || per.Repeat < 8 {
			continue
		}
		steady, tail := per.Visits[per.Lead:per.Lead+per.Len], per.Visits[per.Lead+per.Len:]
		if per.Repeat%2 == 0 {
			next := slices.Clone(steady)
			for j := range next {
				next[j].Block++
			}
			d := per
			d.Visits = slices.Concat(per.Visits[:per.Lead+per.Len], next, tail)
			d.Len, d.Repeat = 2*per.Len, per.Repeat/2
			if same(names[i]+"/two-block run", core.WithPeriod(s, d)) == nil {
				t.Fatalf("%s: a two-block steady run passes", names[i])
			}
			doubled++
		}
		if len(tail) == per.Len && tail[0].Iters < steady[0].Iters {
			c := per
			c.Visits = per.Visits[:per.Lead+per.Len]
			c.Repeat++
			if same(names[i]+"/claimed tail", core.WithPeriod(s, c)) == nil {
				t.Fatalf("%s: a steady block claiming the tail passes", names[i])
			}
			claimed++
		}
	}
	t.Logf("%d two-block runs, %d claimed tails", doubled, claimed)
	if doubled == 0 || claimed == 0 {
		t.Errorf("%d two-block runs and %d claimed tails checked; want both", doubled, claimed)
	}
}
