package core_test

// The allocation golden: the Frame Buffer replay of every Basic, DS and
// CDS schedule over the Table 1 rows, a slice of the seeded corpus and
// the pinned regressions must keep producing the exact AllocationReport
// committed in testdata/alloc-golden.json. Each case stores a short
// SHA-256 of the JSON of the full report (every event with its Object
// and Datum names, PeakUsed, Splits, Regular and IrregularObjects) and
// of the replay error, under three allocator policies. The schedules
// the replay walks (visits with their movement lists, retention, RF)
// are pinned the same way in testdata/schedule-golden.json. A change
// that moves placements or traffic on purpose must say so and
// regenerate the files: delete them and run the test once.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"testing"

	"cds/internal/alloc"
	"cds/internal/app"
	"cds/internal/arch"
	"cds/internal/core"
	"cds/internal/sim"
	"cds/internal/workloads"
)

const (
	allocGoldenPath    = "testdata/alloc-golden.json"
	scheduleGoldenPath = "testdata/schedule-golden.json"
)

// allocPolicies are the replay configurations each schedule is pinned
// under: the production one (splitting allowed), the paper's no-split
// proof, and the one-sided worst-fit ablation.
var allocPolicies = []core.AllocOptions{
	{AllowSplit: true},
	{AllowSplit: false},
	{AllowSplit: true, OneSided: true, FitPolicy: alloc.WorstFit},
}

// allocDigest returns a short SHA-256 of the JSON of one replay outcome:
// the report (partial when the replay failed) and the error text.
func allocDigest(t *testing.T, rep *core.AllocationReport, err error) string {
	t.Helper()
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	raw, jerr := json.Marshal([]any{rep, msg})
	if jerr != nil {
		t.Fatal(jerr)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:6])
}

// scheduleDigest returns a short SHA-256 of the JSON of everything a
// scheduler decided: the visits with their movement lists, the retained
// objects, the reuse factor and the release discipline.
func scheduleDigest(t *testing.T, s *core.Schedule) string {
	t.Helper()
	raw, err := json.Marshal([]any{s.Scheduler, s.RF, s.InPlaceRelease, s.Retained, s.Visits()})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:6])
}

// simEval is the timing-model RF guard the facade wires into DS and CDS.
func simEval(s *core.Schedule) (int, error) {
	r, err := sim.Run(s)
	if err != nil {
		return 0, err
	}
	return r.TotalCycles, nil
}

// goldenCases accumulates the digests of both golden files.
type goldenCases struct {
	allocs, schedules map[string][]string
}

// add digests every scheduler's schedule of one application, with and
// without the timing-model RF guard, and its replay; a scheduler that
// cannot place it records "infeasible" in both files.
func (g goldenCases) add(t *testing.T, name string, p arch.Params, part *app.Partition) {
	t.Helper()
	scheds := []core.Scheduler{
		core.Basic{}, core.DataScheduler{}, core.CompleteDataScheduler{},
		core.DataScheduler{Eval: simEval}, core.CompleteDataScheduler{Eval: simEval},
	}
	for i, sched := range scheds {
		key := name + "/" + sched.Name()
		if i >= 3 {
			key += "+eval"
		}
		s, err := sched.Schedule(p, part)
		if err != nil {
			g.allocs[key] = []string{"infeasible"}
			g.schedules[key] = []string{"infeasible"}
			continue
		}
		g.schedules[key] = []string{scheduleDigest(t, s)}
		g.allocs[key] = policyDigests(t, s)
		if i < 3 && s.RF > 1 && s.NumVisits() > len(s.Info.Clusters) {
			g.allocs[key+"/ragged"] = policyDigests(t, ragged(s))
		}
	}
}

// policyDigests replays one schedule under every allocPolicies entry.
func policyDigests(t *testing.T, s *core.Schedule) []string {
	t.Helper()
	var out []string
	for _, opts := range allocPolicies {
		rep, err := core.AllocateWithOptions(s, opts)
		out = append(out, allocDigest(t, rep, err))
	}
	return out
}

// ragged returns a copy of s whose first block runs one iteration per
// visit. The later blocks place more instances per visit than the first,
// so remembered addresses collide and the replay's irregularity
// bookkeeping (Regular, IrregularObjects) is exercised; no scheduler
// emits such a schedule. The copy keeps s's steady block: when that is
// block 0, its first run becomes a leading block.
func ragged(s *core.Schedule) *core.Schedule {
	per := s.Period()
	vs := slices.Clone(per.Visits)
	if per.Len > 0 && per.Lead == 0 {
		next := slices.Clone(vs[:per.Len])
		for i := range next {
			next[i].Block++
		}
		vs = slices.Concat(vs[:per.Len], next, vs[per.Len:])
		per.Lead, per.Repeat = per.Len, per.Repeat-1
	}
	for i := range vs {
		if vs[i].Block == 0 {
			vs[i].Iters = 1
		}
	}
	per.Visits = vs
	return core.WithPeriod(s, per)
}

// goldenDigests computes every golden case.
func goldenDigests(t *testing.T) goldenCases {
	t.Helper()
	g := goldenCases{allocs: map[string][]string{}, schedules: map[string][]string{}}
	for _, e := range workloads.All() {
		g.add(t, "table1/"+e.Name, e.Arch, e.Part)
	}
	for i := 0; i < 200; i++ {
		part, p, err := workloads.GenSpec(1, i).Build()
		if err != nil {
			t.Fatalf("GenSpec(1, %d): %v", i, err)
		}
		g.add(t, fmt.Sprintf("spec/%03d", i), p, part)
	}
	for _, sp := range workloads.Regressions() {
		part, p, err := sp.Build()
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		g.add(t, sp.Name, p, part)
	}
	return g
}

// TestAllocGolden pins the allocation replay and the schedules it walks
// to the committed digests.
func TestAllocGolden(t *testing.T) {
	g := goldenDigests(t)
	checkGolden(t, allocGoldenPath, g.allocs)
	checkGolden(t, scheduleGoldenPath, g.schedules)
}

// checkGolden compares got with the golden file at path. When the file
// is missing it is written from the current code and the test fails,
// so a regenerated file is always a deliberate, reviewed commit.
func checkGolden(t *testing.T, path string, got map[string][]string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		out, err := json.MarshalIndent(got, "", " ")
		if err == nil {
			err = os.WriteFile(path, append(out, '\n'), 0o644)
		}
		t.Errorf("wrote %s with %d cases (error: %v); review and commit it", path, len(got), err)
		return
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
			t.Errorf("%s: %s: digests %v, golden %v", path, k, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d cases computed, golden has %d", path, len(got), len(want))
	}
}
