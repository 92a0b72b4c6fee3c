package machine

// The machine golden: every functional run over a fixed set of schedules
// must stay byte-identical to testdata/machine-golden.json. The cases are
// every Basic, DS and CDS schedule over the Table 1 rows, GenSpec(1,
// 0..199) and the pinned regressions. Each row keeps the replay's split
// count in plain text, so a change to split placements can be traced to
// the schedules that have them, and a short SHA-256 of the run: its final
// outputs, its byte and kernel counters, the ordered OnLoad/OnStore call
// sequence and its error text.
//
// A change that moves a row on purpose must say so and regenerate the
// file: delete it and run the test once.

import (
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
	"cds/internal/workloads"
)

const machineGoldenPath = "testdata/machine-golden.json"

// goldenRow is one schedule's functional run.
type goldenRow struct {
	Splits int    `json:"splits"`
	Digest string `json:"digest"`
}

// runDigest runs the schedule with hooks that log every transfer and
// digests what the run observed.
func runDigest(s *core.Schedule) string {
	h := sha256.New()
	hooks := &Hooks{
		OnLoad: func(datum string, absIter, size int) error {
			fmt.Fprintf(h, "load %s@%d %d\n", datum, absIter, size)
			return nil
		},
		OnStore: func(datum string, absIter, size int) error {
			fmt.Fprintf(h, "store %s@%d %d\n", datum, absIter, size)
			return nil
		},
	}
	res, err := RunWithHooks(s, 1, nil, hooks)
	if err != nil {
		fmt.Fprintf(h, "error %v\n", err)
	} else {
		fmt.Fprintf(h, "loaded %d stored %d kernels %d\n", res.LoadedBytes, res.StoredBytes, res.KernelRuns)
		out := res.FinalOutputs(s)
		keys := make([]string, 0, len(out))
		for k := range out {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "out %s %x\n", k, out[k])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// addRuns records every scheduler's functional run of one application.
func addRuns(t *testing.T, got map[string]goldenRow, name string, p arch.Params, part *app.Partition) {
	t.Helper()
	for _, sched := range []core.Scheduler{core.Basic{}, core.DataScheduler{}, core.CompleteDataScheduler{}} {
		key := name + "/" + sched.Name()
		s, err := sched.Schedule(p, part)
		if err != nil {
			got[key] = goldenRow{Digest: "infeasible"}
			continue
		}
		rep, err := core.Allocate(s, true)
		if err != nil {
			t.Fatalf("%s: replay: %v", key, err)
		}
		got[key] = goldenRow{Splits: rep.Splits, Digest: runDigest(s)}
	}
}

// TestMachineGolden pins every functional run to the committed digests.
func TestMachineGolden(t *testing.T) {
	got := map[string]goldenRow{}
	for _, e := range workloads.All() {
		addRuns(t, got, "table1/"+e.Name, e.Arch, e.Part)
	}
	for i := 0; i < 200; i++ {
		part, p, err := workloads.GenSpec(1, i).Build()
		if err != nil {
			t.Fatalf("GenSpec(1, %d): %v", i, err)
		}
		addRuns(t, got, fmt.Sprintf("spec/%03d", i), p, part)
	}
	for _, sp := range workloads.Regressions() {
		part, p, err := sp.Build()
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		addRuns(t, got, sp.Name, p, part)
	}

	raw, err := os.ReadFile(machineGoldenPath)
	if errors.Is(err, os.ErrNotExist) {
		out, err := json.MarshalIndent(got, "", " ")
		if err == nil {
			err = os.WriteFile(machineGoldenPath, append(out, '\n'), 0o644)
		}
		t.Fatalf("wrote %s with %d cases (error: %v); review and commit it", machineGoldenPath, len(got), err)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenRow
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Errorf("%s: run %+v, golden %+v", k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: case missing from the golden", k)
		}
	}
}
