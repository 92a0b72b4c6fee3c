package sim_test

// The walk equivalence golden: every public entry point of the timing
// simulator, run over the Table 1 rows and slices of the seeded corpora,
// must keep producing the exact Result/TenantResult and recorded
// Timeline committed in testdata/walk-golden.json. Each case stores a
// short SHA-256 of the JSON of its outputs, so any change to cycle
// accounting, span emission order or mark labels shows up as a
// mismatch. A machine-model change that moves cycles on purpose must
// say so and regenerate the file: delete it and run the test once.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"testing"

	"cds/internal/app"
	"cds/internal/arch"
	"cds/internal/core"
	"cds/internal/sim"
	"cds/internal/stream"
	"cds/internal/tenant"
	"cds/internal/workloads"
)

const walkGoldenPath = "testdata/walk-golden.json"

// digest returns a short SHA-256 of the JSON of vs.
func digest(t *testing.T, vs ...any) string {
	t.Helper()
	raw, err := json.Marshal(vs)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:6])
}

// scheduleDigests runs one schedule through Trace, TraceStream (online
// and prefetch) and RunSerial, returning one digest per entry point.
func scheduleDigests(t *testing.T, s *core.Schedule) []string {
	t.Helper()
	r, tl, err := sim.Trace(s)
	if err != nil {
		t.Fatal(err)
	}
	out := []string{digest(t, r, tl)}
	for _, prefetch := range []bool{false, true} {
		r, tl, err := sim.TraceStream(s, "", sim.StreamOpts{Prefetch: prefetch})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, digest(t, r, tl))
	}
	serial, err := sim.RunSerial(s)
	if err != nil {
		t.Fatal(err)
	}
	serial.StallCycles = 0
	return append(out, digest(t, serial))
}

// addSchedules digests Basic, DS and CDS schedules of one application;
// a scheduler that cannot place it records "infeasible".
func addSchedules(t *testing.T, got map[string][]string, name string, p arch.Params, part *app.Partition) {
	t.Helper()
	for _, sched := range []core.Scheduler{core.Basic{}, core.DataScheduler{}, core.CompleteDataScheduler{}} {
		key := name + "/" + sched.Name()
		s, err := sched.Schedule(p, part)
		if err != nil {
			got[key] = []string{"infeasible"}
			continue
		}
		got[key] = scheduleDigests(t, s)
	}
}

// walkDigests computes every golden case.
func walkDigests(t *testing.T) map[string][]string {
	t.Helper()
	ctx := context.Background()
	got := map[string][]string{}
	for _, e := range workloads.All() {
		addSchedules(t, got, "table1/"+e.Name, e.Arch, e.Part)
	}
	for i := 0; i < 200; i++ {
		part, p, err := workloads.GenSpec(1, i).Build()
		if err != nil {
			t.Fatalf("GenSpec(1, %d): %v", i, err)
		}
		addSchedules(t, got, fmt.Sprintf("spec/%03d", i), p, part)
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("arrivals/%03d", i)
		a := workloads.GenArrivals(1, i)
		lg, err := stream.Split(a.Spec, a.SegClusters, a.ArriveAt)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		plan, err := stream.NewPlanner(0).Plan(ctx, lg)
		if err != nil {
			got[key] = []string{"infeasible"}
			continue
		}
		for _, prefetch := range []bool{false, true} {
			r, tl, err := plan.Trace(prefetch, "")
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got[key] = append(got[key], digest(t, r, tl))
		}
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("tenants/%03d", i)
		mix := workloads.GenTenantMix(1, i)
		tenants := make([]tenant.Tenant, len(mix.Tenants))
		for j, ts := range mix.Tenants {
			part, _, err := ts.Spec.Build()
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			tenants[j] = tenant.Tenant{
				ID: ts.ID, Weight: ts.Weight, Priority: ts.Priority, Arrive: ts.Arrive,
				Quota: tenant.Quota{FBBytes: ts.Spec.Arch.FBSetBytes, CMWords: ts.Spec.Arch.CMWords},
				Part:  part,
			}
		}
		plan, err := tenant.Schedule(ctx, mix.Base, tenants)
		if err != nil {
			got[key] = []string{"infeasible"}
			continue
		}
		r, err := sim.RunTenants(plan.Schedules(), plan.Arrivals(), plan.Order)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		got[key] = []string{digest(t, r)}
	}
	return got
}

// TestWalkGolden pins every simulator entry point to the committed
// digests. When the golden file is missing it is written from the
// current code and the test fails, so a regenerated file is always a
// deliberate, reviewed commit.
func TestWalkGolden(t *testing.T) {
	got := walkDigests(t)
	raw, err := os.ReadFile(walkGoldenPath)
	if errors.Is(err, os.ErrNotExist) {
		out, err := json.MarshalIndent(got, "", " ")
		if err == nil {
			err = os.WriteFile(walkGoldenPath, append(out, '\n'), 0o644)
		}
		t.Fatalf("wrote %s with %d cases (error: %v); review and commit it", walkGoldenPath, len(got), err)
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
			t.Errorf("%s: digests %v, golden %v", k, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d cases computed, golden has %d", len(got), len(want))
	}
}
