package core_test

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"cds/internal/codegen"
	"cds/internal/core"
	"cds/internal/workloads"
)

// corpusSchedules returns every Basic, DS and CDS schedule of the Table 1
// rows and GenSpec(1, 0..n-1), keyed by "<app>/<scheduler>"; an
// infeasible scheduler has no entry.
func corpusSchedules(t *testing.T, n int) (keys []string, scheds map[string]*core.Schedule) {
	t.Helper()
	scheds = map[string]*core.Schedule{}
	add := func(name string, e workloads.Experiment) {
		for _, sched := range []core.Scheduler{core.Basic{}, core.DataScheduler{}, core.CompleteDataScheduler{}} {
			s, err := sched.Schedule(e.Arch, e.Part)
			if err != nil {
				continue
			}
			key := name + "/" + sched.Name()
			keys = append(keys, key)
			scheds[key] = s
		}
	}
	for _, e := range workloads.All() {
		add("table1/"+e.Name, e)
	}
	for i := 0; i < n; i++ {
		part, p, err := workloads.GenSpec(1, i).Build()
		if err != nil {
			t.Fatalf("GenSpec(1, %d): %v", i, err)
		}
		add(fmt.Sprintf("spec/%03d", i), workloads.Experiment{Arch: p, Part: part})
	}
	return keys, scheds
}

// TestSummaryMatchesRecording: Allocate is the recording replay without
// its event log; both stop at their period. On every corpus schedule, and
// on its ragged copy whose remembered addresses collide, with splitting on
// and off, both forms agree on the peaks, the splits, the regularity and
// the error text, Allocate keeps no events, and the recording's events
// read in replay order are those of the expansion's recording. Both
// replays skip most of the corpus's blocks.
func TestSummaryMatchesRecording(t *testing.T) {
	keys, scheds := corpusSchedules(t, 544)
	errs, irregular, splits, blocks, replayed, recorded := 0, 0, 0, 0, 0, 0
	for _, key := range keys {
		for _, variant := range []string{"", "/ragged"} {
			s := scheds[key]
			if variant != "" {
				s = ragged(s)
			}
			for _, split := range []bool{true, false} {
				name := fmt.Sprintf("%s%s/split=%v", key, variant, split)
				sum, rec := compareReplays(t, name, s, split)
				if rec == nil {
					errs++
					continue
				}
				if !rec.Regular {
					irregular++
				}
				if rec.Splits > 0 {
					splits++
				}
				blocks += s.NumVisits() / len(s.P.Clusters)
				replayed += core.ReplayedBlocks(sum)
				recorded += core.ReplayedBlocks(rec)
			}
		}
	}
	// The failure, irregularity and split paths must have been
	// compared, or the parity above is vacuous for them.
	if errs == 0 || irregular == 0 || splits == 0 {
		t.Errorf("corpus exercised %d failed, %d irregular and %d split replays; want all nonzero", errs, irregular, splits)
	}
	t.Logf("summaries replayed %d and recordings %d of %d blocks", replayed, recorded, blocks)
	if replayed*2 > blocks || recorded*2 > blocks {
		t.Errorf("summaries replayed %d and recordings %d of %d blocks; want each under half", replayed, recorded, blocks)
	}
}

// compareReplays replays s in both forms and fails unless they agree on
// the peaks, the splits, the regularity and the error text, and the
// recording reads as the recording of s's expansion, event for event. It
// returns the two reports, or a nil recording when the replay failed.
func compareReplays(t *testing.T, name string, s *core.Schedule, split bool) (sum, rec *core.AllocationReport) {
	t.Helper()
	sum, serr := core.Allocate(s, split)
	rec, rerr := core.AllocateWithOptions(s, core.AllocOptions{AllowSplit: split})
	if fmt.Sprint(serr) != fmt.Sprint(rerr) {
		t.Fatalf("%s: summary error %v, recording error %v", name, serr, rerr)
	}
	full, ferr := core.AllocateWithOptions(s.WithVisits(s.Visits()), core.AllocOptions{AllowSplit: split})
	if fmt.Sprint(ferr) != fmt.Sprint(rerr) {
		t.Fatalf("%s: recording error %v, the expansion's %v", name, rerr, ferr)
	}
	if rerr == nil {
		if p := full.EventPeriod(); p.Repeat != 0 || full.NumEvents() != len(full.Events) {
			t.Fatalf("%s: the expansion's recording stores %d of %d events as a period %+v", name, len(full.Events), full.NumEvents(), p)
		}
		if rec.NumEvents() != full.NumEvents() {
			t.Fatalf("%s: recording has %d events, the expansion's %d", name, rec.NumEvents(), full.NumEvents())
		}
		for i := range rec.NumEvents() {
			if rec.Event(i) != full.Events[i] {
				t.Fatalf("%s: event %d is %+v, the expansion's %+v", name, i, rec.Event(i), full.Events[i])
			}
		}
		if rec.Splits != full.Splits || !slices.Equal(rec.IrregularObjects, full.IrregularObjects) {
			t.Fatalf("%s: recording splits %d, irregular %v; the expansion's %d, %v", name,
				rec.Splits, rec.IrregularObjects, full.Splits, full.IrregularObjects)
		}
	}
	if sum.Events != nil {
		t.Fatalf("%s: summary keeps %d events", name, len(sum.Events))
	}
	if serr != nil {
		return sum, nil
	}
	if !maps.Equal(sum.PeakUsed, rec.PeakUsed) || sum.Splits != rec.Splits || sum.Regular != rec.Regular ||
		!slices.Equal(sum.IrregularObjects, rec.IrregularObjects) {
		t.Fatalf("%s: summary %v/%d/%v/%v, recording %v/%d/%v/%v", name,
			sum.PeakUsed, sum.Splits, sum.Regular, sum.IrregularObjects,
			rec.PeakUsed, rec.Splits, rec.Regular, rec.IrregularObjects)
	}
	return sum, rec
}

// mpegCDS returns a fresh MPEG CDS schedule (RF 2: fifteen blocks of two
// iterations), to be edited by hand.
func mpegCDS(t *testing.T) *core.Schedule {
	t.Helper()
	e := workloads.MPEG()
	s, err := (core.CompleteDataScheduler{}).Schedule(e.Arch, e.Part)
	if err != nil {
		t.Fatal(err)
	}
	if s.RF != 2 || s.NumVisits() != 15*len(s.Info.Clusters) {
		t.Fatalf("MPEG CDS: RF %d, %d visits; want RF 2 and 15 blocks", s.RF, s.NumVisits())
	}
	return s
}

// TestSummaryStopsAtThePeriod: the stock MPEG CDS replay repeats from
// block 1, and 30 iterations leave no shorter tail block, so the summary
// and the recording walk blocks 0 and 1 only. The recording stores block
// 0's events and block 1's, which run fourteen times.
func TestSummaryStopsAtThePeriod(t *testing.T) {
	s := mpegCDS(t)
	sum, rec := compareReplays(t, "MPEG/cds", s, true)
	if got := core.ReplayedBlocks(sum); got != 2 {
		t.Errorf("summary replayed %d blocks, want 2", got)
	}
	if got := core.ReplayedBlocks(rec); got != 2 {
		t.Errorf("recording replayed %d blocks, want 2", got)
	}
	p := rec.EventPeriod()
	if nc := len(s.P.Clusters); p.Repeat != 14 || p.Lead+p.Len != len(rec.Events) || p.First != nc || p.Visits != nc {
		t.Errorf("recording stores %d events as %+v; want block 0 leading and block 1 steady for 14 runs", len(rec.Events), p)
	}
}

// TestSummaryWithoutAPeriod: when every block runs a different number of
// iterations from the one before, the addresses move from block to block
// and the summary walks every block.
func TestSummaryWithoutAPeriod(t *testing.T) {
	s := mpegCDS(t)
	vs := s.Visits()
	for i := range vs {
		vs[i].Iters = 1 + vs[i].Block%2
	}
	s = s.WithVisits(vs)
	sum, rec := compareReplays(t, "MPEG/cds/alternating", s, true)
	if rec.Regular {
		t.Error("alternating blocks kept every address; want moves")
	}
	if got := core.ReplayedBlocks(sum); got != 15 {
		t.Errorf("summary replayed %d blocks, want all 15", got)
	}
}

// TestSummaryTailBlockFails: a tail block too large for the Frame Buffer
// fails the summary as it fails the recording, naming the tail block,
// although the blocks before it repeat and are skipped. The schedule's
// last steady run becomes a trailing block of eight iterations.
func TestSummaryTailBlockFails(t *testing.T) {
	s := mpegCDS(t)
	per := s.Period()
	if per.Len == 0 || per.Lead+per.Len != len(per.Visits) {
		t.Fatalf("MPEG CDS period %d+%d of %d visits; want a steady block that runs to the end",
			per.Lead, per.Len, len(per.Visits))
	}
	tail := slices.Clone(per.Visits[per.Lead:])
	for i := range tail {
		tail[i].Block += per.Repeat - 1
		tail[i].Iters = 8
	}
	per.Visits = slices.Concat(per.Visits, tail)
	per.Repeat--
	s = core.WithPeriod(s, per)
	if got := s.Visit(s.NumVisits() - 1).Block; got != 14 {
		t.Fatalf("tail block %d, want 14", got)
	}
	for _, split := range []bool{true, false} {
		sum, rec := compareReplays(t, fmt.Sprintf("MPEG/cds/tail/split=%v", split), s, split)
		if rec != nil {
			t.Fatalf("split=%v: an 8-iteration tail block fits; want a failure", split)
		}
		_, err := core.Allocate(s, split)
		if !strings.Contains(err.Error(), "block 14") {
			t.Errorf("split=%v: %v; want the tail block named", split, err)
		}
		if got := core.ReplayedBlocks(sum); got != 3 {
			t.Errorf("split=%v: summary replayed %d blocks, want 3", split, got)
		}
	}
}

// TestSummaryCountsSkippedSplits: with the Frame Buffer shrunk until the
// replay splits in every block, the summary adds each skipped block's
// splits and matches the recording's count.
func TestSummaryCountsSkippedSplits(t *testing.T) {
	s := mpegCDS(t)
	for fb := s.Arch.FBSetBytes; fb > s.Arch.FBSetBytes/2; fb -= 16 {
		s.Arch.FBSetBytes = fb
		rec, err := core.AllocateWithOptions(s, core.AllocOptions{AllowSplit: true})
		if err != nil || rec.Splits < 15 {
			continue
		}
		perBlock := map[int]int{}
		for i := range rec.NumEvents() {
			if ev := rec.Event(i); ev.Op == core.OpAlloc && ev.Split {
				perBlock[ev.Block]++
			}
		}
		if len(perBlock) != 15 {
			continue
		}
		sum, _ := compareReplays(t, fmt.Sprintf("MPEG/cds/fb=%d", fb), s, true)
		if got := core.ReplayedBlocks(sum); got >= 15 {
			t.Errorf("FB %d: summary replayed %d blocks; want the repeats skipped", fb, got)
		}
		t.Logf("FB %d: %d splits, %d blocks replayed", fb, sum.Splits, core.ReplayedBlocks(sum))
		return
	}
	t.Fatal("no FB size splits MPEG CDS in every block")
}

// TestSummaryIsNotAnEventLog: a summary report's nil Events is not an
// empty replay. Walking it, or lowering a program from it, is an error.
func TestSummaryIsNotAnEventLog(t *testing.T) {
	e := workloads.MPEG()
	s, err := (core.CompleteDataScheduler{}).Schedule(e.Arch, e.Part)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := core.Allocate(s, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewReplay(s, sum); err == nil || !strings.Contains(err.Error(), "summary") {
		t.Errorf("NewReplay on a summary: err = %v, want a summary error", err)
	}
	if _, err := codegen.GenerateFrom(s, sum); err == nil || !strings.Contains(err.Error(), "summary") {
		t.Errorf("GenerateFrom on a summary: err = %v, want a summary error", err)
	}
	rec, err := core.AllocateWithOptions(s, core.AllocOptions{AllowSplit: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewReplay(s, rec); err != nil {
		t.Errorf("NewReplay on a recording: %v", err)
	}
	if _, err := codegen.GenerateFrom(s, rec); err != nil {
		t.Errorf("GenerateFrom on a recording: %v", err)
	}
}

// TestVisitListsFollowBlockZero pins the visit build's data lists. Every
// visit's Loads and Stores name its cluster's block-0 data in the same
// order, each moving Iters instances of the datum. Each visit of the
// period owns its lists: writing into one visit's Loads, or appending to
// them, changes no other stored visit's lists. (The runs of the steady
// block share its visits' lists.)
func TestVisitListsFollowBlockZero(t *testing.T) {
	keys, scheds := corpusSchedules(t, 200)
	for _, key := range keys {
		s := scheds[key]
		a := s.P.App
		first := map[int]core.Visit{}
		for vi, v := range s.Visits() {
			if v.Block == 0 {
				first[v.Cluster] = v
			}
			f, ok := first[v.Cluster]
			if !ok {
				t.Fatalf("%s: visit %d of cluster %d runs before its block 0", key, vi, v.Cluster)
			}
			for _, l := range []struct {
				kind      string
				got, want []core.Movement
			}{{"loads", v.Loads, f.Loads}, {"stores", v.Stores, f.Stores}} {
				if len(l.got) != len(l.want) {
					t.Fatalf("%s: visit %d moves %d %s, block 0 moves %d", key, vi, len(l.got), l.kind, len(l.want))
				}
				for j, m := range l.got {
					if m.Datum != l.want[j].Datum || m.Bytes != v.Iters*a.SizeOf(m.Datum) {
						t.Fatalf("%s: visit %d %s[%d] = %+v; block 0 has %+v, want %d iterations of it",
							key, vi, l.kind, j, m, l.want[j], v.Iters)
					}
				}
			}
		}

		stored := s.Period().Visits
		snapshot := func() [][]core.Movement {
			var out [][]core.Movement
			for _, v := range stored {
				out = append(out, slices.Clone(v.Loads), slices.Clone(v.Stores), slices.Clone(v.CtxLoads))
			}
			return out
		}
		before := snapshot()
		for vi := range stored {
			v := &stored[vi]
			if len(v.Loads) == 0 {
				continue
			}
			saved := v.Loads
			v.Loads[0].Bytes = -1
			v.Loads = append(v.Loads, core.Movement{Datum: "stray", Bytes: -1})
			after := snapshot()
			for wi := range stored {
				for l := 0; l < 3; l++ {
					if wi == vi && l == 0 {
						continue
					}
					if !slices.Equal(after[3*wi+l], before[3*wi+l]) {
						t.Fatalf("%s: writing visit %d's loads changed list %d of visit %d", key, vi, l, wi)
					}
				}
			}
			v.Loads = saved
			v.Loads[0] = before[3*vi][0]
		}
	}
}
