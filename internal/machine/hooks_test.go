// Hook-ordering coverage for RunWithHooks: the machine drives its
// load/store hooks in program order — visits in schedule order, loads
// before stores within a visit, exactly one hook call per scheduled
// transfer — and fault injection (internal/faultmachine) observes that
// same sequence: stalls leave it untouched, a transfer failure truncates
// it exactly at the faulted transfer.
//
// This lives in an external test package because faultmachine imports
// machine; the package under test is still machine.
package machine_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"cds/internal/core"
	"cds/internal/faultmachine"
	"cds/internal/machine"
	"cds/internal/workloads"
)

// xfer is one observed hook invocation.
type xfer struct {
	Op      string
	Datum   string
	AbsIter int
	Size    int
}

func (x xfer) String() string {
	return fmt.Sprintf("%s %s@%d (%dB)", x.Op, x.Datum, x.AbsIter, x.Size)
}

// recordingHooks appends every hook invocation to seq and never faults.
func recordingHooks(seq *[]xfer) *machine.Hooks {
	return &machine.Hooks{
		OnLoad: func(datum string, absIter, size int) error {
			*seq = append(*seq, xfer{"load", datum, absIter, size})
			return nil
		},
		OnStore: func(datum string, absIter, size int) error {
			*seq = append(*seq, xfer{"store", datum, absIter, size})
			return nil
		},
	}
}

func mpegSchedule(t *testing.T, sched core.Scheduler) *core.Schedule {
	t.Helper()
	e, err := workloads.ByName("MPEG")
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Schedule(e.Arch, e.Part)
	if err != nil {
		t.Fatalf("%s: %v", sched.Name(), err)
	}
	return s
}

// visitXfers expands one visit's movements into the multiset of hook
// calls the machine must make for it: one store per (store movement,
// slot), and one load per (datum, slot) the visit transfers. Loads
// dedup by datum because the Basic scheduler's v.Loads counts a datum
// once per consuming kernel — that duplication is its traffic-accounting
// story, while the machine places (and loads) each instance exactly
// once.
func visitXfers(s *core.Schedule, v core.Visit, op string, moves []core.Movement) []xfer {
	var out []xfer
	seen := map[string]bool{}
	for _, m := range moves {
		if op == "load" {
			if seen[m.Datum] {
				continue
			}
			seen[m.Datum] = true
		}
		for slot := 0; slot < v.Iters; slot++ {
			out = append(out, xfer{op, m.Datum, v.Block*s.RF + slot, s.P.App.SizeOf(m.Datum)})
		}
	}
	return out
}

func sortXfers(xs []xfer) {
	sort.Slice(xs, func(i, j int) bool {
		a, b := xs[i], xs[j]
		if a.Datum != b.Datum {
			return a.Datum < b.Datum
		}
		return a.AbsIter < b.AbsIter
	})
}

// checkProgramOrder verifies seq against the schedule: the stream
// partitions into contiguous per-visit groups in schedule order; within
// a visit every load precedes every store; and each group is exactly the
// visit's scheduled transfer multiset — nothing missing, nothing
// duplicated, nothing out of place.
func checkProgramOrder(t *testing.T, s *core.Schedule, seq []xfer) {
	t.Helper()
	at := 0
	take := func(vi int, want []xfer, phase string) {
		t.Helper()
		if at+len(want) > len(seq) {
			t.Fatalf("visit %d: stream ends after %d transfers, want %d more %ss",
				vi, len(seq)-at, at+len(want)-len(seq), phase)
		}
		got := append([]xfer(nil), seq[at:at+len(want)]...)
		at += len(want)
		for _, x := range got {
			if x.Op != phase {
				t.Fatalf("visit %d: %v arrived during the %s phase", vi, x, phase)
			}
		}
		sortXfers(got)
		sortXfers(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("visit %d %ss:\n got %v\nwant %v", vi, phase, got, want)
		}
	}
	for vi, v := range s.Visits() {
		take(vi, visitXfers(s, v, "load", v.Loads), "load")
		take(vi, visitXfers(s, v, "store", v.Stores), "store")
	}
	if at != len(seq) {
		t.Fatalf("%d hook calls beyond the last visit: %v", len(seq)-at, seq[at:])
	}
}

// TestHookProgramOrder pins the ordering guarantee on the fault-free
// machine for all three schedulers.
func TestHookProgramOrder(t *testing.T) {
	for _, sched := range []core.Scheduler{core.Basic{}, core.DataScheduler{}, core.CompleteDataScheduler{}} {
		t.Run(sched.Name(), func(t *testing.T) {
			s := mpegSchedule(t, sched)
			var seq []xfer
			if _, err := machine.RunWithHooks(s, 11, nil, recordingHooks(&seq)); err != nil {
				t.Fatal(err)
			}
			if len(seq) == 0 {
				t.Fatal("no hook calls recorded")
			}
			checkProgramOrder(t, s, seq)
		})
	}
}

// TestHookOrderUnderStalls pins that injected stalls neither reorder,
// drop nor duplicate hook events: the observed sequence is identical to
// the fault-free one and the outputs stay byte-for-byte equal.
func TestHookOrderUnderStalls(t *testing.T) {
	s := mpegSchedule(t, core.CompleteDataScheduler{})

	var ref []xfer
	clean, err := machine.RunWithHooks(s, 11, nil, recordingHooks(&ref))
	if err != nil {
		t.Fatal(err)
	}

	var seq []xfer
	res, st, err := faultmachine.Run(s, 11, nil, faultmachine.Config{
		Seed:         3,
		StallProbPct: 75,
		Observe:      func(op, datum string, absIter, size int) { seq = append(seq, xfer{op, datum, absIter, size}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Stalls == 0 {
		t.Fatal("vacuous: no stalls injected at 75%")
	}
	if !reflect.DeepEqual(seq, ref) {
		t.Fatalf("stalled sequence diverged: %d events vs %d fault-free", len(seq), len(ref))
	}
	checkProgramOrder(t, s, seq)
	for key, want := range clean.FinalOutputs(s) {
		if !bytes.Equal(res.Ext[key], want) {
			t.Fatalf("output %s differs under stalls", key)
		}
	}
}

// TestHookOrderUnderFailure pins exactly-once semantics through an
// injected transfer failure: the observed sequence is a strict prefix of
// the fault-free one, cut precisely at the faulted transfer — the failed
// transfer is observed once (it was attempted) and nothing runs after it.
func TestHookOrderUnderFailure(t *testing.T) {
	s := mpegSchedule(t, core.DataScheduler{})

	var ref []xfer
	if _, err := machine.RunWithHooks(s, 11, nil, recordingHooks(&ref)); err != nil {
		t.Fatal(err)
	}

	const failAt = 7
	var seq []xfer
	_, _, err := faultmachine.Run(s, 11, nil, faultmachine.Config{
		FailEvery: failAt,
		Observe:   func(op, datum string, absIter, size int) { seq = append(seq, xfer{op, datum, absIter, size}) },
	})
	var fe *faultmachine.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *FaultError", err)
	}
	if fe.N != failAt {
		t.Fatalf("fault hit transfer %d, want %d", fe.N, failAt)
	}
	if !reflect.DeepEqual(seq, ref[:failAt]) {
		t.Fatalf("failed run observed %d events, want the %d-event prefix of the fault-free order", len(seq), failAt)
	}
	last := seq[len(seq)-1]
	if fe.Op != last.Op || fe.Datum != last.Datum || fe.AbsIter != last.AbsIter {
		t.Fatalf("fault names %s %s@%d, last observed transfer was %v", fe.Op, fe.Datum, fe.AbsIter, last)
	}
}
