package core

import (
	"strings"
	"testing"
)

func TestValidateScheduleAcceptsAllSchedulers(t *testing.T) {
	part := pipeApp(t, 5)
	for _, sched := range []Scheduler{Basic{}, DataScheduler{}, CompleteDataScheduler{}, CompleteDataScheduler{CrossSetReuse: true}} {
		s, err := sched.Schedule(testArch(400), part)
		if err != nil {
			t.Fatalf("%s: %v", sched.Name(), err)
		}
		if err := ValidateSchedule(s); err != nil {
			t.Errorf("%s: %v", sched.Name(), err)
		}
	}
}

func TestValidateScheduleRejectsCorruption(t *testing.T) {
	part := pipeApp(t, 4)
	fresh := func() *Schedule {
		s, err := (CompleteDataScheduler{}).Schedule(testArch(400), part)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// edit makes a mutation that edits the expansion of a schedule's
	// visits and rebuilds the schedule from it.
	edit := func(f func(vs []Visit) []Visit) func(*Schedule) {
		return func(s *Schedule) { *s = *s.WithVisits(f(s.Visits())) }
	}
	tests := []struct {
		name    string
		mutate  func(*Schedule)
		wantSub string
	}{
		{"nil", nil, "nil"},
		{"zero RF", func(s *Schedule) { s.RF = 0 }, "RF"},
		{"dropped visit", edit(func(vs []Visit) []Visit { return vs[1:] }), "visits"},
		{"swapped visits", edit(func(vs []Visit) []Visit {
			vs[0], vs[1] = vs[1], vs[0]
			return vs
		}), "visit"},
		{"phantom load", edit(func(vs []Visit) []Visit {
			vs[0].Loads = append(vs[0].Loads, Movement{Datum: "out1", Bytes: 40})
			return vs
		}), "loads"},
		{"wrong load volume", edit(func(vs []Visit) []Visit {
			vs[0].Loads[0].Bytes++
			return vs
		}), "bytes"},
		{"phantom store", edit(func(vs []Visit) []Visit {
			vs[0].Stores = append(vs[0].Stores, Movement{Datum: "inA", Bytes: 200})
			return vs
		}), "stores"},
		{"oversized ctx load", edit(func(vs []Visit) []Visit {
			for vi := range vs {
				if len(vs[vi].CtxLoads) > 0 {
					vs[vi].CtxLoads[0].Bytes += 1000
					vs[vi].CtxWords += 1000
					break
				}
			}
			return vs
		}), "context load"},
		{"ctx sum mismatch", edit(func(vs []Visit) []Visit {
			vs[0].CtxWords++
			return vs
		}), "CtxWords"},
		{"wrong compute", edit(func(vs []Visit) []Visit {
			vs[0].ComputeCycles++
			return vs
		}), "compute"},
		{"bad retained span", func(s *Schedule) {
			if len(s.Retained) == 0 {
				t.Skip("no retention on this config")
			}
			s.Retained[0].To = 99
		}, "span"},
		{"bad retained size", func(s *Schedule) {
			if len(s.Retained) == 0 {
				t.Skip("no retention on this config")
			}
			s.Retained[0].Size++
		}, "size"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var s *Schedule
			if tt.mutate != nil {
				s = fresh()
				tt.mutate(s)
			}
			err := ValidateSchedule(s)
			if err == nil {
				t.Fatal("corrupted schedule accepted")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error %q does not mention %q", err, tt.wantSub)
			}
		})
	}
}
