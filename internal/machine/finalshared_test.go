package machine

import (
	"bytes"
	"testing"

	"cds/internal/app"
	"cds/internal/codegen"
	"cds/internal/core"
)

// finalSharedPartition: datum "rep" is BOTH a final result (must reach
// external memory) and an input of a later same-set cluster. Retaining it
// avoids the reload but not the store — the paper's Final-result corner.
func finalSharedPartition() *app.Partition {
	b := app.NewBuilder("finshared", 6).
		Datum("in0", 120)
	b.FinalDatum("rep", 100)
	b.Datum("mid1", 40).
		Datum("out2", 60)
	b.Kernel("k0", 32, 120).In("in0").Out("rep")
	b.Kernel("k1", 32, 120).In("in0").Out("mid1")
	b.Kernel("k2", 32, 120).In("rep", "mid1").Out("out2")
	return app.MustPartition(b.MustBuild(), 2, 1, 1, 1)
}

func TestFinalSharedResultRetention(t *testing.T) {
	part := finalSharedPartition()
	pa := testArch(1024, 128)

	s, err := (core.CompleteDataScheduler{}).Schedule(pa, part)
	if err != nil {
		t.Fatal(err)
	}
	// rep must be retained (clusters 0 and 2 share set 0)...
	found := false
	for _, r := range s.Retained {
		if r.Name == "rep" {
			found = true
		}
	}
	if !found {
		t.Fatalf("rep not retained: %+v", s.Retained)
	}
	// ...its STORE must still happen (it is final)...
	stored := false
	for _, v := range s.Visits() {
		for _, m := range v.Stores {
			if m.Datum == "rep" {
				stored = true
			}
		}
		// ...but no LOAD anywhere (cluster 2 reads it in place).
		for _, m := range v.Loads {
			if m.Datum == "rep" {
				t.Fatalf("rep loaded despite retention")
			}
		}
	}
	if !stored {
		t.Fatal("final result rep never stored")
	}

	// The generated program must carry the STFB (from the resident
	// placement) and pass the checker.
	prog, err := codegen.Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codegen.Check(prog, s); err != nil {
		t.Fatal(err)
	}
	stfb := 0
	for _, in := range prog.Instrs {
		if in.Op == codegen.OpStFB && in.Datum == "rep" {
			stfb++
		}
	}
	if stfb != part.App.Iterations {
		t.Errorf("rep stored %d times, want %d (once per iteration)", stfb, part.App.Iterations)
	}

	// Functionally, the stored bytes must match what the Basic
	// Scheduler (which reloads rep) exposes.
	basicS, err := (core.Basic{}).Schedule(pa, part)
	if err != nil {
		t.Fatal(err)
	}
	rBasic, err := Run(basicS, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	rCDS, err := Run(s, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range rBasic.FinalOutputs(basicS) {
		if !bytes.Equal(rCDS.Ext[key], want) {
			t.Fatalf("final output %s differs", key)
		}
	}
	// rep itself appears in external memory under both schedulers.
	for iter := 0; iter < part.App.Iterations; iter++ {
		key := "rep@" + string(rune('0'+iter))
		if _, ok := rCDS.Ext[key]; !ok {
			t.Errorf("rep@%d missing from CDS external memory", iter)
		}
	}
}
