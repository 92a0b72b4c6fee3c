package codegen

import (
	"strings"
	"testing"

	"cds/internal/app"
	"cds/internal/arch"
	"cds/internal/core"
)

// pipePartition mirrors the canonical core test application.
func pipePartition(iterations int) *app.Partition {
	b := app.NewBuilder("pipe", iterations).
		Datum("inA", 100).
		Datum("x", 50).
		Datum("m", 30).
		Datum("r2", 60).
		Datum("rB", 40).
		Datum("out1", 20).
		Datum("out2", 20)
	b.Kernel("k1", 16, 1000).In("inA", "x").Out("m")
	b.Kernel("k2", 16, 1000).In("m").Out("r2", "rB")
	b.Kernel("k3", 16, 1000).In("r2").Out("out1")
	b.Kernel("k4", 16, 1000).In("inA", "rB").Out("out2")
	return app.MustPartition(b.MustBuild(), 2, 2, 1, 1)
}

func testArch(fb int) arch.Params {
	p := arch.M1()
	p.FBSetBytes = fb
	p.CMWords = 32
	return p
}

func generate(t *testing.T, sched core.Scheduler, fb, iters int) (*Program, *core.Schedule) {
	t.Helper()
	part := pipePartition(iters)
	s, err := sched.Schedule(testArch(fb), part)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	return p, s
}

func TestGenerateAndCheckAllSchedulers(t *testing.T) {
	for _, sched := range []core.Scheduler{core.Basic{}, core.DataScheduler{}, core.CompleteDataScheduler{}} {
		t.Run(sched.Name(), func(t *testing.T) {
			p, s := generate(t, sched, 400, 4)
			rep, err := Check(p, s)
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			if rep.LoadBytes != s.TotalLoadBytes() || rep.StoreBytes != s.TotalStoreBytes() {
				t.Errorf("volumes drifted: %+v", rep)
			}
			if rep.Execs == 0 {
				t.Error("no EXEC instructions")
			}
		})
	}
}

func TestGenerateCDSSkipsRetainedTraffic(t *testing.T) {
	pBasic, _ := generate(t, core.Basic{}, 400, 4)
	pCDS, sCDS := generate(t, core.CompleteDataScheduler{}, 400, 4)
	if len(sCDS.Retained) == 0 {
		t.Fatal("CDS retained nothing; test needs retention")
	}
	// Retained result rB must never be stored or loaded by CDS.
	for _, in := range pCDS.Instrs {
		if (in.Op == OpLdFB || in.Op == OpStFB) && in.Datum == "rB" {
			t.Errorf("CDS program still transfers rB: %s", in)
		}
	}
	// Basic transfers it.
	found := false
	for _, in := range pBasic.Instrs {
		if in.Op == OpStFB && in.Datum == "rB" {
			found = true
		}
	}
	if !found {
		t.Error("basic program should store rB")
	}
}

func TestGenerateExecCounts(t *testing.T) {
	p, s := generate(t, core.DataScheduler{}, 400, 4)
	wantExecs := 0
	for _, v := range s.Visits() {
		wantExecs += v.Iters * len(s.P.Clusters[v.Cluster].Kernels)
	}
	if got := p.Count(OpExec); got != wantExecs {
		t.Errorf("EXEC count = %d, want %d", got, wantExecs)
	}
	// 4 iterations x 4 kernels = 16 kernel invocations total.
	if wantExecs != 16 {
		t.Errorf("schedule implies %d execs, want 16", wantExecs)
	}
}

func TestProgramString(t *testing.T) {
	p, _ := generate(t, core.CompleteDataScheduler{}, 400, 2)
	s := p.String()
	for _, want := range []string{"LDCTXT", "LDFB", "STFB", "EXEC"} {
		if !strings.Contains(s, want) {
			t.Errorf("program rendering missing %s:\n%s", want, s)
		}
	}
}

func TestOpString(t *testing.T) {
	if OpLdCtxt.String() != "LDCTXT" || OpExec.String() != "EXEC" {
		t.Error("Op names broken")
	}
	if !strings.Contains(Op(99).String(), "99") {
		t.Error("unknown op should render numerically")
	}
}

func TestCheckRejectsCorruptedPrograms(t *testing.T) {
	p, s := generate(t, core.DataScheduler{}, 400, 2)

	corrupt := func(mutate func(q *Program)) error {
		q := &Program{Arch: p.Arch, Instrs: append([]Instr(nil), p.Instrs...)}
		mutate(q)
		_, err := Check(q, s)
		return err
	}

	// Out-of-bounds store.
	if err := corrupt(func(q *Program) {
		for i := range q.Instrs {
			if q.Instrs[i].Op == OpStFB {
				q.Instrs[i].Addr = 1 << 20
				return
			}
		}
	}); err == nil {
		t.Error("out-of-bounds STFB accepted")
	}

	// Store of something never produced.
	if err := corrupt(func(q *Program) {
		for i := range q.Instrs {
			if q.Instrs[i].Op == OpStFB {
				q.Instrs[i].Object = "ghost#i0"
				return
			}
		}
	}); err == nil {
		t.Error("STFB of unproduced object accepted")
	}

	// EXEC without contexts: drop all LDCTXT.
	if err := corrupt(func(q *Program) {
		var kept []Instr
		for _, in := range q.Instrs {
			if in.Op != OpLdCtxt {
				kept = append(kept, in)
			}
		}
		q.Instrs = kept
	}); err == nil {
		t.Error("EXEC without resident contexts accepted")
	}

	// Volume mismatch: drop one LDFB.
	if err := corrupt(func(q *Program) {
		for i, in := range q.Instrs {
			if in.Op == OpLdFB {
				q.Instrs = append(q.Instrs[:i], q.Instrs[i+1:]...)
				return
			}
		}
	}); err == nil {
		t.Error("load-volume mismatch accepted")
	}

	// Negative-size transfer.
	if err := corrupt(func(q *Program) {
		for i := range q.Instrs {
			if q.Instrs[i].Op == OpLdFB {
				q.Instrs[i].Bytes = -1
				return
			}
		}
	}); err == nil {
		t.Error("negative transfer accepted")
	}
}

func TestCheckNilAndSchedleless(t *testing.T) {
	if _, err := Check(nil, nil); err == nil {
		t.Error("nil program accepted")
	}
	// Without a schedule, only structural rules apply.
	p, _ := generate(t, core.DataScheduler{}, 400, 2)
	if _, err := Check(p, nil); err != nil {
		t.Errorf("schedule-less check failed: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p1, _ := generate(t, core.CompleteDataScheduler{}, 400, 4)
	p2, _ := generate(t, core.CompleteDataScheduler{}, 400, 4)
	if p1.String() != p2.String() {
		t.Error("Generate is not deterministic")
	}
}

func TestGenerateTiledApp(t *testing.T) {
	// Intra-kernel tiling introduces streamed inputs (just-in-time tile
	// loads); the generated program must still pass every check.
	b := app.NewBuilder("tiled", 6).
		Datum("bigIn", 600).
		Datum("tbl", 64).
		Datum("feat", 64).
		Datum("out", 64)
	b.Kernel("extract", 128, 240).In("bigIn", "tbl").Out("feat")
	b.Kernel("classify", 96, 120).In("feat", "tbl").Out("out")
	part := app.MustPartition(b.MustBuild(), 2, 1, 1)
	tp, err := app.TilePartition(part, "extract", 4)
	if err != nil {
		t.Fatal(err)
	}
	// A CM large enough for the shared context group: the tiles reuse
	// one load. (With a CM smaller than the group, the configuration
	// streams once per tile instead — also checked below.)
	pa := testArch(1024)
	pa.CMWords = 192
	for _, sched := range []core.Scheduler{core.Basic{}, core.DataScheduler{}, core.CompleteDataScheduler{}} {
		s, err := sched.Schedule(pa, tp)
		if err != nil {
			t.Fatalf("%s: %v", sched.Name(), err)
		}
		p, err := Generate(s)
		if err != nil {
			t.Fatalf("%s: %v", sched.Name(), err)
		}
		if _, err := Check(p, s); err != nil {
			t.Fatalf("%s: %v", sched.Name(), err)
		}
		// Exactly one LDCTXT per context group per visit at most: the
		// four sub-kernels must not each load contexts.
		perVisit := map[[3]int]int{}
		for _, in := range p.Instrs {
			if in.Op == OpLdCtxt && in.Kernel == "extract" {
				perVisit[[3]int{in.Block, in.Cluster, 0}]++
			}
		}
		for k, n := range perVisit {
			if n != 1 {
				t.Errorf("%s: visit %v loads extract contexts %d times", sched.Name(), k, n)
			}
		}
	}

	// With a CM smaller than the group, the configuration streams once
	// per tile; the program must still check out.
	tiny := testArch(1024) // CMWords = 32 < 128
	s, err := (core.DataScheduler{}).Schedule(tiny, tp)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Check(p, s); err != nil {
		t.Fatalf("streaming-context program failed check: %v", err)
	}
}

// TestCheckRejectsMalformedStoreObjects pins strict instance parsing on
// STFB: a store must name "<datum>#i<slot>" exactly, with a slot some
// visit runs. Each object below names a produced datum with a slot that
// a lenient scanner would read as 0 or 3.
func TestCheckRejectsMalformedStoreObjects(t *testing.T) {
	p, s := generate(t, core.DataScheduler{}, 400, 2)
	store := -1
	for i, in := range p.Instrs {
		if in.Op == OpStFB {
			store = i
			break
		}
	}
	if store < 0 {
		t.Fatal("program has no STFB")
	}
	datum, _, ok := core.ParseInstance(p.Instrs[store].Object)
	if !ok {
		t.Fatalf("generated STFB object %q does not parse", p.Instrs[store].Object)
	}
	for _, suffix := range []string{"#i3x", "#i 3", "#i0x1f", "#i-1", "#i00", "#i1000"} {
		q := &Program{Arch: p.Arch, Instrs: append([]Instr(nil), p.Instrs...)}
		q.Instrs[store].Object = datum + suffix
		_, err := Check(q, s)
		if err == nil || !strings.Contains(err.Error(), "malformed instance name") {
			t.Errorf("STFB of %q: err = %v, want a malformed instance name", datum+suffix, err)
		}
	}
}

// TestGenerateFromRejectsForeignEvents pins that GenerateFrom checks
// every event's instance key: an event naming no instance of the
// schedule, or a set no visit runs on, is an error, not a silent miss.
func TestGenerateFromRejectsForeignEvents(t *testing.T) {
	_, s := generate(t, core.CompleteDataScheduler{}, 400, 4)
	rep, err := core.AllocateWithOptions(s, core.AllocOptions{AllowSplit: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateFrom(s, rep); err != nil {
		t.Fatalf("genuine replay: %v", err)
	}
	n := core.InstancesOf(s).Len()
	for _, c := range []struct{ inst, set int }{{-1, 0}, {n, 0}, {0, -1}, {0, 99}} {
		bad := *rep
		bad.Events = append([]core.AllocEvent(nil), rep.Events...)
		bad.Events[len(bad.Events)-1].Inst = int32(c.inst)
		bad.Events[len(bad.Events)-1].Set = c.set
		if _, err := GenerateFrom(s, &bad); err == nil || !strings.Contains(err.Error(), "is not an instance of the schedule") {
			t.Errorf("event of key %d on set %d: err = %v", c.inst, c.set, err)
		}
	}
}

// TestCheckRejectsUnfinalizedApp pins that Check, which indexes the
// app's interned kernel outputs, refuses an app without them.
func TestCheckRejectsUnfinalizedApp(t *testing.T) {
	p, s := generate(t, core.DataScheduler{}, 400, 2)
	a := s.P.App
	bare := *s
	bare.P = &app.Partition{App: &app.App{Name: a.Name, Iterations: a.Iterations, Data: a.Data, Kernels: a.Kernels},
		Clusters: s.P.Clusters}
	if _, err := Check(p, &bare); err == nil || !strings.Contains(err.Error(), "not finalized") {
		t.Errorf("err = %v, want an unfinalized-app error", err)
	}
}
