package verify_test

import (
	"testing"

	"cds/internal/verify"
)

// TestVerifyScheduleAllocs pins the audit's cost on the MPEG CDS
// schedule: one allocation replay shared by the capacity, liveness and
// residency checks, one traced simulation for serialization and
// timeline, dense per-instance tables instead of name-keyed maps, and
// no per-instance strings. The audit made 4857 allocations when it
// replayed allocation twice, simulated twice and keyed its maps by
// formatted instance names.
func TestVerifyScheduleAllocs(t *testing.T) {
	s := mpegCDSSchedule(t)
	allocs := testing.AllocsPerRun(50, func() {
		if err := verify.Schedule(s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 160 {
		t.Errorf("verify.Schedule makes %.0f allocations, want <= 160", allocs)
	}
}
