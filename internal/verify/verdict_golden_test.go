package verify

// The verdict golden: every verdict the checker reaches on a fixed set of
// schedules must stay byte-identical to testdata/verdict-golden.json.
// Each case stores the violated family and a short SHA-256 of the
// violation message ("ok" for a clean verdict). The cases are every
// Basic, DS and CDS schedule over the Table 1 rows, GenSpec(1, 0..199)
// and the pinned regressions, plus seeded corruptions of each:
//
//   - allocation-report mutations fed to checkCapacity and
//     checkLiveness: drop an alloc, move a release ahead of its last
//     reader, duplicate an alloc, swap two releases' sets (each edits
//     the replay of the schedule's expansion, which stores every
//     event);
//   - schedule mutations fed to Schedule: drop a store, shrink
//     FBSetBytes (also fed to checkCapacity with the unshrunk replay),
//     delete a context load.
//
// A change that moves a verdict on purpose must say so and regenerate
// the file: delete it and run the test once.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"slices"
	"testing"

	"cds/internal/app"
	"cds/internal/arch"
	"cds/internal/core"
	"cds/internal/workloads"
)

const verdictGoldenPath = "testdata/verdict-golden.json"

// verdict renders one checker outcome: "ok", or the violated family and
// a digest of the message.
func verdict(err error) string {
	if err == nil {
		return "ok"
	}
	family := "untyped"
	var ve *Error
	if errors.As(err, &ve) {
		family = ve.Invariant
	}
	sum := sha256.Sum256([]byte(err.Error()))
	return family + " " + hex.EncodeToString(sum[:6])
}

// caseRand seeds a case's mutation choices from its name.
func caseRand(name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

func cloneReport(rep *core.AllocationReport) *core.AllocationReport {
	r := *rep
	r.Events = slices.Clone(rep.Events)
	return &r
}

// editVisit returns s rebuilt from the expansion of its visits after f
// edits visit vi of it. The visits share their movement lists, so f
// clones a list before it changes it.
func editVisit(s *core.Schedule, vi int, f func(v *core.Visit)) *core.Schedule {
	vs := s.Visits()
	f(&vs[vi])
	return s.WithVisits(vs)
}

// eventsOf returns the indices of the report's events with the given op.
func eventsOf(rep *core.AllocationReport, op core.AllocOp) []int {
	var out []int
	for i, ev := range rep.Events {
		if ev.Op == op {
			out = append(out, i)
		}
	}
	return out
}

// reportMutations are the allocation-report corruptions. Each returns
// the corrupted copy, or nil when the report has nothing to corrupt.
var reportMutations = []struct {
	name   string
	mutate func(rng *rand.Rand, rep *core.AllocationReport) *core.AllocationReport
}{
	{"drop-alloc", func(rng *rand.Rand, rep *core.AllocationReport) *core.AllocationReport {
		allocs := eventsOf(rep, core.OpAlloc)
		if len(allocs) == 0 {
			return nil
		}
		ai := allocs[rng.Intn(len(allocs))]
		r := cloneReport(rep)
		r.Events = slices.Delete(r.Events, ai, ai+1)
		return r
	}},
	{"early-release", func(rng *rand.Rand, rep *core.AllocationReport) *core.AllocationReport {
		// Move a release to just after the alloc of its placement,
		// taking over the alloc's position in the schedule: every
		// reader of the instance after that point reads dead data.
		releases := eventsOf(rep, core.OpRelease)
		if len(releases) == 0 {
			return nil
		}
		ri := releases[rng.Intn(len(releases))]
		rel := rep.Events[ri]
		ai := -1
		for i := ri - 1; i >= 0; i-- {
			ev := rep.Events[i]
			if ev.Op == core.OpAlloc && ev.Set == rel.Set && ev.Inst == rel.Inst {
				ai = i
				break
			}
		}
		if ai < 0 {
			return nil
		}
		al := rep.Events[ai]
		rel.Cluster, rel.Block, rel.Iter, rel.Kernel = al.Cluster, al.Block, al.Iter, al.Kernel
		r := cloneReport(rep)
		r.Events = slices.Delete(r.Events, ri, ri+1)
		r.Events = slices.Insert(r.Events, ai+1, rel)
		return r
	}},
	{"dup-alloc", func(rng *rand.Rand, rep *core.AllocationReport) *core.AllocationReport {
		allocs := eventsOf(rep, core.OpAlloc)
		if len(allocs) == 0 {
			return nil
		}
		ai := allocs[rng.Intn(len(allocs))]
		r := cloneReport(rep)
		r.Events = slices.Insert(r.Events, ai+1, rep.Events[ai])
		return r
	}},
	{"swap-release-sets", func(rng *rand.Rand, rep *core.AllocationReport) *core.AllocationReport {
		releases := eventsOf(rep, core.OpRelease)
		if len(releases) == 0 {
			return nil
		}
		i := releases[rng.Intn(len(releases))]
		var others []int
		for _, j := range releases {
			if rep.Events[j].Set != rep.Events[i].Set {
				others = append(others, j)
			}
		}
		if len(others) == 0 {
			return nil
		}
		j := others[rng.Intn(len(others))]
		r := cloneReport(rep)
		r.Events[i].Set, r.Events[j].Set = r.Events[j].Set, r.Events[i].Set
		return r
	}},
}

// scheduleMutations are the schedule corruptions fed to Schedule. Each
// returns the corrupted copy, or nil when the schedule has nothing to
// corrupt.
var scheduleMutations = []struct {
	name   string
	mutate func(rng *rand.Rand, s *core.Schedule) *core.Schedule
}{
	{"drop-store", func(rng *rand.Rand, s *core.Schedule) *core.Schedule {
		var visits []int
		for vi, v := range s.Visits() {
			if len(v.Stores) > 0 {
				visits = append(visits, vi)
			}
		}
		if len(visits) == 0 {
			return nil
		}
		return editVisit(s, visits[rng.Intn(len(visits))], func(v *core.Visit) {
			j := rng.Intn(len(v.Stores))
			v.Stores = slices.Delete(slices.Clone(v.Stores), j, j+1)
		})
	}},
	{"shrink-fb", func(rng *rand.Rand, s *core.Schedule) *core.Schedule {
		c := *s
		c.Arch.FBSetBytes = 1 + rng.Intn(s.Arch.FBSetBytes)
		return &c
	}},
	{"drop-ctx-load", func(rng *rand.Rand, s *core.Schedule) *core.Schedule {
		// Keep CtxWords consistent so the structure family passes and
		// the contexts' residency is what the checker must catch.
		var visits []int
		for vi, v := range s.Visits() {
			if len(v.CtxLoads) > 0 {
				visits = append(visits, vi)
			}
		}
		if len(visits) == 0 {
			return nil
		}
		return editVisit(s, visits[rng.Intn(len(visits))], func(v *core.Visit) {
			j := rng.Intn(len(v.CtxLoads))
			v.CtxWords -= v.CtxLoads[j].Bytes
			v.CtxLoads = slices.Delete(slices.Clone(v.CtxLoads), j, j+1)
		})
	}},
}

// addVerdicts records the verdicts of every scheduler's schedule of one
// application and of its corruptions.
func addVerdicts(t *testing.T, got map[string][]string, name string, p arch.Params, part *app.Partition) {
	t.Helper()
	for _, sched := range []core.Scheduler{core.Basic{}, core.DataScheduler{}, core.CompleteDataScheduler{}} {
		key := name + "/" + sched.Name()
		s, err := sched.Schedule(p, part)
		if err != nil {
			got[key] = []string{"infeasible"}
			continue
		}
		got[key] = []string{verdict(Schedule(s))}
		// The report mutations edit the replay of the expansion, which
		// stores every event.
		e := s.WithVisits(s.Visits())
		rep, err := core.AllocateWithOptions(e, core.AllocOptions{AllowSplit: true})
		if err != nil {
			t.Fatalf("%s: replay: %v", key, err)
		}
		for _, m := range reportMutations {
			r := m.mutate(caseRand(key+"/"+m.name), rep)
			if r == nil {
				got[key+"/"+m.name] = []string{"n/a"}
				continue
			}
			got[key+"/"+m.name] = []string{verdict(checkCapacity(e, r)), verdict(checkLiveness(e, r))}
		}
		for _, m := range scheduleMutations {
			c := m.mutate(caseRand(key+"/"+m.name), s)
			if c == nil {
				got[key+"/"+m.name] = []string{"n/a"}
				continue
			}
			v := []string{verdict(Schedule(c))}
			if c.Arch.FBSetBytes != s.Arch.FBSetBytes {
				v = append(v, verdict(checkCapacity(c, rep)))
			}
			got[key+"/"+m.name] = v
		}
	}
}

// TestVerdictGolden pins every verdict to the committed digests.
func TestVerdictGolden(t *testing.T) {
	got := map[string][]string{}
	for _, e := range workloads.All() {
		addVerdicts(t, got, "table1/"+e.Name, e.Arch, e.Part)
	}
	for i := 0; i < 200; i++ {
		part, p, err := workloads.GenSpec(1, i).Build()
		if err != nil {
			t.Fatalf("GenSpec(1, %d): %v", i, err)
		}
		addVerdicts(t, got, fmt.Sprintf("spec/%03d", i), p, part)
	}
	for _, sp := range workloads.Regressions() {
		part, p, err := sp.Build()
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		addVerdicts(t, got, sp.Name, p, part)
	}

	raw, err := os.ReadFile(verdictGoldenPath)
	if errors.Is(err, os.ErrNotExist) {
		out, err := json.MarshalIndent(got, "", " ")
		if err == nil {
			err = os.WriteFile(verdictGoldenPath, append(out, '\n'), 0o644)
		}
		t.Fatalf("wrote %s with %d cases (error: %v); review and commit it", verdictGoldenPath, len(got), err)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if g := got[k]; !slices.Equal(g, w) {
			t.Errorf("%s: verdicts %v, golden %v", k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: case missing from the golden", k)
		}
	}
}
