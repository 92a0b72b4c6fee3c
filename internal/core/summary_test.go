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
// rows and GenSpec(1, 0..199), keyed by "<app>/<scheduler>"; an
// infeasible scheduler has no entry.
func corpusSchedules(t *testing.T) (keys []string, scheds map[string]*core.Schedule) {
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
	for i := 0; i < 200; i++ {
		part, p, err := workloads.GenSpec(1, i).Build()
		if err != nil {
			t.Fatalf("GenSpec(1, %d): %v", i, err)
		}
		add(fmt.Sprintf("spec/%03d", i), workloads.Experiment{Arch: p, Part: part})
	}
	return keys, scheds
}

// TestSummaryMatchesRecording: Allocate is the recording replay without
// its event log. On every corpus schedule, and on its ragged copy whose
// remembered addresses collide, with splitting on and off, both forms
// agree on the peaks, the splits, the regularity and the error text, and
// Allocate keeps no events.
func TestSummaryMatchesRecording(t *testing.T) {
	keys, scheds := corpusSchedules(t)
	errs, irregular := 0, 0
	for _, key := range keys {
		for _, variant := range []string{"", "/ragged"} {
			s := scheds[key]
			if variant != "" {
				s = ragged(s)
			}
			for _, split := range []bool{true, false} {
				name := fmt.Sprintf("%s%s/split=%v", key, variant, split)
				sum, serr := core.Allocate(s, split)
				rec, rerr := core.AllocateWithOptions(s, core.AllocOptions{AllowSplit: split})
				if fmt.Sprint(serr) != fmt.Sprint(rerr) {
					t.Fatalf("%s: summary error %v, recording error %v", name, serr, rerr)
				}
				if serr != nil {
					errs++
				}
				if sum.Events != nil {
					t.Fatalf("%s: summary keeps %d events", name, len(sum.Events))
				}
				if !maps.Equal(sum.PeakUsed, rec.PeakUsed) || sum.Splits != rec.Splits || sum.Regular != rec.Regular ||
					!slices.Equal(sum.IrregularObjects, rec.IrregularObjects) {
					t.Fatalf("%s: summary %v/%d/%v/%v, recording %v/%d/%v/%v", name,
						sum.PeakUsed, sum.Splits, sum.Regular, sum.IrregularObjects,
						rec.PeakUsed, rec.Splits, rec.Regular, rec.IrregularObjects)
				}
				if !rec.Regular {
					irregular++
				}
			}
		}
	}
	// Both the failure and the irregularity paths must have been
	// compared, or the parity above is vacuous for them.
	if errs == 0 || irregular == 0 {
		t.Errorf("corpus exercised %d failed and %d irregular replays; want both nonzero", errs, irregular)
	}
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
// order, each moving Iters instances of the datum. Each visit owns its
// lists: writing into one visit's Loads, or appending to them, changes no
// other visit's lists.
func TestVisitListsFollowBlockZero(t *testing.T) {
	keys, scheds := corpusSchedules(t)
	for _, key := range keys {
		s := scheds[key]
		a := s.P.App
		first := map[int]core.Visit{}
		for vi, v := range s.Visits {
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

		snapshot := func() [][]core.Movement {
			var out [][]core.Movement
			for _, v := range s.Visits {
				out = append(out, slices.Clone(v.Loads), slices.Clone(v.Stores), slices.Clone(v.CtxLoads))
			}
			return out
		}
		before := snapshot()
		for vi := range s.Visits {
			v := &s.Visits[vi]
			if len(v.Loads) == 0 {
				continue
			}
			saved := v.Loads
			v.Loads[0].Bytes = -1
			v.Loads = append(v.Loads, core.Movement{Datum: "stray", Bytes: -1})
			after := snapshot()
			for wi := range s.Visits {
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
