package verify

import (
	"errors"
	"fmt"
	"testing"

	"cds/internal/core"
	"cds/internal/scherr"
	"cds/internal/workloads"
)

// FuzzVerifySchedule is the scheduling-pipeline fuzz oracle: for any
// generatable workload and architecture, every schedule the schedulers
// accept must pass the full invariant audit, with the same verdict on its
// period as on its explicit expansion (WithVisits over Visits), and
// nothing may panic.
// Schedule-time rejections are fine only when they are typed taxonomy
// errors (infeasible or capacity).
func FuzzVerifySchedule(f *testing.F) {
	f.Add(uint8(6), uint8(2), uint8(12), uint16(128), uint8(50), uint8(50), int64(1), uint32(0), uint8(2))
	f.Add(uint8(1), uint8(1), uint8(1), uint16(8), uint8(0), uint8(0), int64(7), uint32(512), uint8(0))
	f.Add(uint8(8), uint8(3), uint8(24), uint16(300), uint8(100), uint8(100), int64(42), uint32(2048), uint8(1))
	f.Add(uint8(4), uint8(2), uint8(9), uint16(64), uint8(25), uint8(75), int64(-3), uint32(200), uint8(3))

	f.Fuzz(func(t *testing.T, clusters, kpc, iters uint8, dataBytes uint16,
		sharedData, sharedResult uint8, seed int64, fbBytes uint32, which uint8) {
		cfg := workloads.SyntheticConfig{
			Clusters:          1 + int(clusters)%12,
			KernelsPerCluster: 1 + int(kpc)%4,
			Iterations:        1 + int(iters)%32,
			DataBytes:         8 + int(dataBytes)%1024,
			SharedDataFrac:    float64(sharedData%101) / 100,
			SharedResultFrac:  float64(sharedResult%101) / 100,
			CtxWords:          32 + int(dataBytes)%256,
			ComputeCycles:     16 + int(iters)%256,
		}
		part, err := workloads.Synthetic(cfg, seed)
		if err != nil {
			t.Skip() // generator rejected the config: nothing to audit
		}
		pa := workloads.SyntheticArch(cfg)
		if fbBytes != 0 {
			// Fuzz the Frame Buffer too: small sets probe infeasibility
			// paths, large ones probe retention-heavy schedules.
			pa.FBSetBytes = 32 + int(fbBytes)%(1<<16)
		}
		scheds := []core.Scheduler{
			core.Basic{},
			core.DataScheduler{},
			core.CompleteDataScheduler{},
			core.CompleteDataScheduler{Eval: core.DMACost},
		}
		sched := scheds[int(which)%len(scheds)]
		s, err := sched.Schedule(pa, part)
		if err != nil {
			if !errors.Is(err, scherr.ErrInfeasible) && !errors.Is(err, scherr.ErrCapacity) {
				t.Fatalf("%s rejected a generated workload with an untyped error: %v", sched.Name(), err)
			}
			return
		}
		err = Schedule(s)
		if werr := Schedule(s.WithVisits(s.Visits())); fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("%s: verdict on the period %v; on the expansion %v", sched.Name(), err, werr)
		}
		if err != nil {
			t.Fatalf("%s produced a schedule that fails verification: %v", sched.Name(), err)
		}
	})
}
