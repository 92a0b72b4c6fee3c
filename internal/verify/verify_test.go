package verify

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"cds/internal/core"
	"cds/internal/scherr"
	"cds/internal/workloads"
)

var allSchedulers = []core.Scheduler{
	core.Basic{},
	core.DataScheduler{},
	core.CompleteDataScheduler{},
	core.CompleteDataScheduler{Eval: core.DMACost},
}

// TestSeedWorkloadsVerifyClean is the headline acceptance check: every
// schedule any scheduler produces for the paper's experiments passes the
// full invariant audit. Infeasible (scheduler, workload) combinations —
// e.g. Basic on the MPEG memory floor — are skipped, not failed.
func TestSeedWorkloadsVerifyClean(t *testing.T) {
	for _, e := range workloads.All() {
		for _, sched := range allSchedulers {
			s, err := sched.Schedule(e.Arch, e.Part)
			if errors.Is(err, scherr.ErrInfeasible) {
				continue
			}
			if err != nil {
				t.Errorf("%s/%s: schedule: %v", e.Name, sched.Name(), err)
				continue
			}
			if err := Schedule(s); err != nil {
				t.Errorf("%s/%s: %v", e.Name, sched.Name(), err)
			}
		}
	}
}

func TestSyntheticWorkloadsVerifyClean(t *testing.T) {
	cfgs := []workloads.SyntheticConfig{workloads.DefaultSynthetic()}
	big := workloads.DefaultSynthetic()
	big.Clusters, big.Iterations = 8, 24
	cfgs = append(cfgs, big)
	for ci, cfg := range cfgs {
		pa := workloads.SyntheticArch(cfg)
		for seed := int64(1); seed <= 3; seed++ {
			part, err := workloads.Synthetic(cfg, seed)
			if err != nil {
				t.Fatalf("cfg %d seed %d: %v", ci, seed, err)
			}
			for _, sched := range allSchedulers {
				s, err := sched.Schedule(pa, part)
				if errors.Is(err, scherr.ErrInfeasible) {
					continue
				}
				if err != nil {
					t.Errorf("cfg %d seed %d %s: schedule: %v", ci, seed, sched.Name(), err)
					continue
				}
				if err := Schedule(s); err != nil {
					t.Errorf("cfg %d seed %d %s: %v", ci, seed, sched.Name(), err)
				}
			}
		}
	}
}

func mpegCDS(t *testing.T) *core.Schedule {
	t.Helper()
	e, err := workloads.ByName("MPEG")
	if err != nil {
		t.Fatal(err)
	}
	s, err := (core.CompleteDataScheduler{}).Schedule(e.Arch, e.Part)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// wantViolation asserts err is a verifier error of the named invariant
// family that matches scherr.ErrVerify.
func wantViolation(t *testing.T, err error, invariant string) {
	t.Helper()
	if err == nil {
		t.Fatalf("corrupted schedule verified clean, want %s violation", invariant)
	}
	if !errors.Is(err, scherr.ErrVerify) {
		t.Fatalf("err = %v, does not match scherr.ErrVerify", err)
	}
	var ve *Error
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, not a *verify.Error", err)
	}
	if ve.Invariant != invariant {
		t.Fatalf("violated invariant %q (%v), want %q", ve.Invariant, err, invariant)
	}
}

func TestNilScheduleRejected(t *testing.T) {
	wantViolation(t, Schedule(nil), "structure")
}

// TestDetectsVolumeTamper corrupts a load's byte volume; the structure
// family (core.ValidateSchedule) must flag it.
func TestDetectsVolumeTamper(t *testing.T) {
	s := mpegCDS(t)
	vs := s.Visits()
	tampered := false
	for vi := range vs {
		if len(vs[vi].Loads) > 0 {
			vs[vi].Loads = slices.Clone(vs[vi].Loads)
			vs[vi].Loads[0].Bytes++
			tampered = true
			break
		}
	}
	s = s.WithVisits(vs)
	if !tampered {
		t.Fatal("no visit with loads to tamper")
	}
	wantViolation(t, Schedule(s), "structure")
}

// TestDetectsDroppedLoad removes an entire load movement, leaving all
// remaining volumes self-consistent: structure passes, but the kernels
// then read data that was never brought on chip — a liveness violation.
func TestDetectsDroppedLoad(t *testing.T) {
	s := mpegCDS(t)
	vs := s.Visits()
	dropped := false
	for vi := range vs {
		v := &vs[vi]
		if len(v.Loads) > 0 {
			v.Loads = v.Loads[1:]
			dropped = true
			break
		}
	}
	s = s.WithVisits(vs)
	if !dropped {
		t.Fatal("no visit with loads to drop")
	}
	err := Schedule(s)
	if err == nil {
		t.Fatal("schedule with a dropped load verified clean")
	}
	if !errors.Is(err, scherr.ErrVerify) {
		t.Fatalf("err = %v, does not match scherr.ErrVerify", err)
	}
}

// TestDetectsCapacityTamper shrinks the Frame Buffer after scheduling:
// the allocation replay no longer fits and the capacity family reports
// it, wrapping the allocator's scherr.ErrCapacity class.
func TestDetectsCapacityTamper(t *testing.T) {
	s := mpegCDS(t)
	s.Arch.FBSetBytes = 64
	err := Schedule(s)
	if err == nil {
		t.Fatal("schedule on a shrunken FB verified clean")
	}
	if !errors.Is(err, scherr.ErrVerify) {
		t.Fatalf("err = %v, does not match scherr.ErrVerify", err)
	}
}

func TestErrorRendering(t *testing.T) {
	err := violated("capacity", "set %d over", 1)
	want := "verify: capacity invariant violated: set 1 over"
	if err.Error() != want {
		t.Fatalf("Error() = %q, want %q", err.Error(), want)
	}
	var ve *Error
	if !errors.As(err, &ve) || ve.Unwrap() == nil {
		t.Fatal("violated() must produce an unwrappable *Error")
	}
	if errors.Is(err, scherr.ErrInfeasible) {
		t.Fatal("verify errors must not match other taxonomy classes")
	}
	wrapped := fmt.Errorf("outer: %w", err)
	if !errors.Is(wrapped, scherr.ErrVerify) {
		t.Fatal("wrapped verifier error lost its class")
	}
}
