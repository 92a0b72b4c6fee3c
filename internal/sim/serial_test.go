package sim

import (
	"strings"
	"testing"

	"cds/internal/core"
	"cds/internal/workloads"
)

func TestRunSerialNeverFaster(t *testing.T) {
	for _, e := range workloads.All() {
		for _, sched := range []core.Scheduler{core.Basic{}, core.DataScheduler{}, core.CompleteDataScheduler{}} {
			s, err := sched.Schedule(e.Arch, e.Part)
			if err != nil {
				t.Fatalf("%s/%s: %v", e.Name, sched.Name(), err)
			}
			serial, err := RunSerial(s)
			if err != nil {
				t.Fatal(err)
			}
			overlapped, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if serial.TotalCycles < overlapped.TotalCycles {
				t.Errorf("%s/%s: serial %d beats overlapped %d",
					e.Name, sched.Name(), serial.TotalCycles, overlapped.TotalCycles)
			}
			// Volumes are identical; only timing differs.
			if serial.LoadBytes != overlapped.LoadBytes ||
				serial.StoreBytes != overlapped.StoreBytes ||
				serial.CtxWords != overlapped.CtxWords ||
				serial.ComputeCycles != overlapped.ComputeCycles {
				t.Errorf("%s/%s: volumes differ between serial and overlapped", e.Name, sched.Name())
			}
			// Serial total is exactly compute + all DMA.
			if want := serial.ComputeCycles + serial.DMABusy(); serial.TotalCycles != want {
				t.Errorf("%s/%s: serial total %d != compute+dma %d",
					e.Name, sched.Name(), serial.TotalCycles, want)
			}
		}
	}
}

func TestOverlapGainPositive(t *testing.T) {
	e := workloads.MPEG()
	s, err := (core.CompleteDataScheduler{}).Schedule(e.Arch, e.Part)
	if err != nil {
		t.Fatal(err)
	}
	gain, err := OverlapGain(s)
	if err != nil {
		t.Fatal(err)
	}
	if gain <= 0 {
		t.Errorf("overlap gain = %.1f%%, want positive (double buffering must pay)", gain)
	}
	if gain >= 100 {
		t.Errorf("overlap gain = %.1f%%, impossible", gain)
	}
}

func TestRunSerialErrors(t *testing.T) {
	if _, err := RunSerial(nil); err == nil {
		t.Error("nil schedule accepted")
	}
	s := handSchedule()
	s.Arch.BusBytes = 0
	if _, err := RunSerial(s); err == nil {
		t.Error("invalid arch accepted")
	}
}

func TestWriteTimeline(t *testing.T) {
	s := handSchedule()
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	WriteTimeline(&b, s, r)
	out := b.String()
	for _, want := range []string{"total", "c0 b0", "c1 b0", "#", "RC busy"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	// Mismatched result is reported, not panicking.
	var b2 strings.Builder
	WriteTimeline(&b2, s, &Result{})
	if !strings.Contains(b2.String(), "does not match") {
		t.Error("mismatch not reported")
	}
}

// TestStallIsRCIdleTime pins StallCycles to its documented meaning, the
// RC array's idle time before its last compute ends, for every entry
// point that returns a Result.
func TestStallIsRCIdleTime(t *testing.T) {
	runs := map[string]func(*core.Schedule) (*Result, error){
		"run":      Run,
		"online":   func(s *core.Schedule) (*Result, error) { return RunStream(s, StreamOpts{}) },
		"prefetch": func(s *core.Schedule) (*Result, error) { return RunStream(s, StreamOpts{Prefetch: true}) },
		"serial":   RunSerial,
	}
	for _, e := range workloads.All() {
		for _, sched := range []core.Scheduler{core.Basic{}, core.DataScheduler{}, core.CompleteDataScheduler{}} {
			s, err := sched.Schedule(e.Arch, e.Part)
			if err != nil {
				t.Fatalf("%s/%s: %v", e.Name, sched.Name(), err)
			}
			for name, run := range runs {
				r, err := run(s)
				if err != nil {
					t.Fatal(err)
				}
				if last := r.VisitEnd[len(r.VisitEnd)-1]; r.StallCycles+r.ComputeCycles != last {
					t.Errorf("%s/%s/%s: stall %d + compute %d != last visit end %d",
						e.Name, sched.Name(), name, r.StallCycles, r.ComputeCycles, last)
				}
			}
		}
	}
}
