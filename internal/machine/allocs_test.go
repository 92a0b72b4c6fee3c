package machine

import (
	"testing"

	"cds/internal/core"
	"cds/internal/workloads"
)

// TestRunAllocs pins the functional run's cost on the MPEG CDS schedule:
// the allocation replay walked once (core.Replay), dense external-memory
// and Frame Buffer tables, and per kernel step only the inputs, outputs
// and maps the Semantics API hands over. It measured 4071 allocations;
// the run made 6965 when it grouped copies of the events into maps per
// visit and step, keyed placements by set and instance name and
// formatted a name per lookup.
func TestRunAllocs(t *testing.T) {
	e := workloads.MPEG()
	s, err := (core.CompleteDataScheduler{}).Schedule(e.Arch, e.Part)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Run(s, 1, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4300 {
		t.Errorf("machine.Run makes %.0f allocations, want <= 4300", allocs)
	}
}
