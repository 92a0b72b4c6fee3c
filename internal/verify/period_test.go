package verify_test

// The period oracle of the verifier: a schedule stored as its period
// (core.Period) and the same schedule listed explicitly (WithVisits over
// Visits) must get the same verdict, nil or the same error text. The
// explicit list is walked in full, so the oracle checks every step the
// period audit skips.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cds/internal/app"
	"cds/internal/arch"
	"cds/internal/core"
	"cds/internal/verify"
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

// periodCorpus returns every candidate schedule of Table 1 and GenSpec(1,
// 0..543), each named by its input.
func periodCorpus(t *testing.T) (names []string, scheds []*core.Schedule) {
	t.Helper()
	add := func(name string, pa arch.Params, part *app.Partition) {
		for _, s := range candidates(pa, part) {
			names = append(names, fmt.Sprintf("%s/%s RF %d", name, s.Scheduler, s.RF))
			scheds = append(scheds, s)
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
	return names, scheds
}

// sameVerdict fails unless s and its explicit expansion get the same
// verdict, and returns it.
func sameVerdict(t *testing.T, name string, s *core.Schedule) error {
	t.Helper()
	err := verify.Schedule(s)
	werr := verify.Schedule(s.WithVisits(s.Visits()))
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("%s: verdict on the period %v; on the expansion %v", name, err, werr)
	}
	return err
}

// steadyEdits corrupt one stored visit of a steady block. Each edits v in
// place, cloning a movement list before it changes it, and reports false
// when v has nothing to corrupt.
var steadyEdits = []struct {
	name string
	edit func(rng *rand.Rand, v *core.Visit) bool
}{
	{"drop-load", func(rng *rand.Rand, v *core.Visit) bool {
		if len(v.Loads) == 0 {
			return false
		}
		j := rng.Intn(len(v.Loads))
		v.Loads = slices.Delete(slices.Clone(v.Loads), j, j+1)
		return true
	}},
	{"shrink-store", func(rng *rand.Rand, v *core.Visit) bool {
		if len(v.Stores) == 0 {
			return false
		}
		j := rng.Intn(len(v.Stores))
		v.Stores = slices.Clone(v.Stores)
		v.Stores[j].Bytes -= 1 + rng.Intn(v.Stores[j].Bytes)
		return true
	}},
	{"drop-ctx-load", func(rng *rand.Rand, v *core.Visit) bool {
		// CtxWords stays consistent, so the contexts' residency is
		// what the audit must catch.
		if len(v.CtxLoads) == 0 {
			return false
		}
		j := rng.Intn(len(v.CtxLoads))
		v.CtxWords -= v.CtxLoads[j].Bytes
		v.CtxLoads = slices.Delete(slices.Clone(v.CtxLoads), j, j+1)
		return true
	}},
}

// TestPeriodVerdictMatchesExplicit runs the oracle over the corpus, and
// over corrupted periods of a sample of it: one stored visit of the
// steady block edited, which every run of the block repeats. The edit
// goes through Period().Visits, which shares the schedule's storage, and
// is undone after the verdicts.
func TestPeriodVerdictMatchesExplicit(t *testing.T) {
	names, scheds := periodCorpus(t)
	rng := rand.New(rand.NewSource(1))
	steady, failed, corrupted := 0, 0, map[string]int{}
	for i, s := range scheds {
		if err := sameVerdict(t, names[i], s); err != nil {
			failed++
		}
		per := s.Period()
		if per.Len == 0 || per.Repeat < 2 {
			continue
		}
		steady++
		if steady%8 != 0 {
			continue
		}
		j := per.Lead + rng.Intn(per.Len)
		orig := per.Visits[j]
		for _, e := range steadyEdits {
			if !e.edit(rng, &per.Visits[j]) {
				continue
			}
			if sameVerdict(t, fmt.Sprintf("%s/%s visit %d", names[i], e.name, j), s) != nil {
				corrupted[e.name]++
			}
			per.Visits[j] = orig
		}
	}
	t.Logf("%d schedules, %d with a steady block, %d failing; corrupted periods caught: %v",
		len(scheds), steady, failed, corrupted)
	for _, e := range steadyEdits {
		if corrupted[e.name] == 0 {
			t.Errorf("no %s corruption was caught; the oracle is vacuous for it", e.name)
		}
	}
}

// TestPeriodNeverSettlesWalkedInFull: a Basic schedule of two iterations
// is its steady block run twice. The replay's first run remembers its
// first addresses, so the boundary state settles only at the end of the
// last run: the recording finds no period and stores every event, and
// the audit walks every block. The verdicts, also on each corrupted
// copy, match the expansion's.
func TestPeriodNeverSettlesWalkedInFull(t *testing.T) {
	names, scheds := periodCorpus(t)
	rng := rand.New(rand.NewSource(2))
	walked := 0
	for i, s := range scheds {
		per := s.Period()
		if per.Len == 0 || per.Repeat < 2 {
			continue
		}
		rep, err := core.AllocateWithOptions(s, core.AllocOptions{AllowSplit: true})
		if err != nil || rep.EventPeriod().Repeat != 0 {
			continue
		}
		if rep.NumEvents() != len(rep.Events) {
			t.Fatalf("%s: the recording stores %d of %d events without a period", names[i], len(rep.Events), rep.NumEvents())
		}
		walked++
		sameVerdict(t, names[i], s)
		j := per.Lead + rng.Intn(per.Len)
		orig := per.Visits[j]
		for _, e := range steadyEdits {
			if e.edit(rng, &per.Visits[j]) {
				sameVerdict(t, fmt.Sprintf("%s/%s visit %d", names[i], e.name, j), s)
				per.Visits[j] = orig
			}
		}
	}
	t.Logf("%d periods whose replay never settles", walked)
	if walked == 0 {
		t.Error("no period of the corpus has a replay that never settles")
	}
}
