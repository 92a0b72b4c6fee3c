package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"cds/internal/core"
	"cds/internal/scherr"
	"cds/internal/spec"
	"cds/internal/verify"
	"cds/internal/workloads"
)

// testSpec is a small two-pipeline application: four single-kernel
// clusters where k0→k1 and k2→k3 chain through intermediates. Split at
// every cluster boundary, "mid" and "mid2" cross segments.
func testSpec() *spec.Spec {
	return &spec.Spec{
		Name:       "t",
		Iterations: 2,
		Data: []spec.Datum{
			{Name: "in", Size: 256},
			{Name: "mid", Size: 128},
			{Name: "out", Size: 64, Final: true},
			{Name: "in2", Size: 256},
			{Name: "mid2", Size: 128},
			{Name: "out2", Size: 64, Final: true},
		},
		Kernels: []spec.Kernel{
			{Name: "k0", ContextWords: 24, ComputeCycles: 400, Inputs: []string{"in"}, Outputs: []string{"mid"}},
			{Name: "k1", ContextWords: 16, ComputeCycles: 300, Inputs: []string{"mid"}, Outputs: []string{"out"}},
			{Name: "k2", ContextWords: 24, ComputeCycles: 400, Inputs: []string{"in2"}, Outputs: []string{"mid2"}},
			{Name: "k3", ContextWords: 16, ComputeCycles: 300, Inputs: []string{"mid2"}, Outputs: []string{"out2"}},
		},
		Clusters: []int{1, 1, 1, 1},
	}
}

func mustPlan(t *testing.T, pl *Planner, lg *Log) *Plan {
	t.Helper()
	p, err := pl.Plan(context.Background(), lg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// A single-segment stream at t=0 is the offline problem: the planner
// must reproduce the static CDS schedule visit-for-visit.
func TestPlanSingleSegmentMatchesStatic(t *testing.T) {
	sp := testSpec()
	plan := mustPlan(t, NewPlanner(0), FromSpec(sp, 0))

	part, pa, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	static, err := (core.CompleteDataScheduler{Eval: simEval}).Schedule(pa, part)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Schedule.NumVisits() != static.NumVisits() {
		t.Fatalf("stream plan has %d visits, static CDS %d", plan.Schedule.NumVisits(), static.NumVisits())
	}
	for i, v := range static.Visits() {
		if got := plan.Schedule.Visit(i); got.Cluster != v.Cluster || got.Set != v.Set ||
			got.CtxWords != v.CtxWords || got.ComputeCycles != v.ComputeCycles {
			t.Errorf("visit %d differs: stream %+v static %+v", i, got, v)
		}
	}
	if plan.Segments[0].RF != static.RF {
		t.Errorf("RF = %d, static CDS chose %d", plan.Segments[0].RF, static.RF)
	}
}

// Split marks cross-segment intermediates Final (the producing segment
// must write them back for the consumer to load) and Merged folds the
// log back into a consistent whole-application view.
func TestSplitMarksCrossSegmentDataFinal(t *testing.T) {
	lg, err := Split(testSpec(), []int{1, 1, 1, 1}, []int{0, 10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range lg.Segments[0].Data {
		if d.Name == "mid" {
			found = true
			if !d.Final {
				t.Error("datum \"mid\" crosses segments 0->1 but is not marked Final")
			}
		}
	}
	if !found {
		t.Fatal("segment 0 does not declare datum \"mid\"")
	}
	m, err := lg.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Kernels) != 4 || len(m.Clusters) != 4 {
		t.Fatalf("merged spec has %d kernels/%d clusters, want 4/4", len(m.Kernels), len(m.Clusters))
	}
	// Splitting the merged view again must be stable: the Final marks
	// already agree, so round two changes nothing.
	lg2, err := Split(m, []int{1, 1, 1, 1}, []int{0, 10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := lg.Marshal()
	b2, _ := lg2.Marshal()
	if !bytes.Equal(b1, b2) {
		t.Error("Split(Merged(log)) differs from Split(spec)")
	}
}

// The golden delta test: replanning a stream whose tail changed, with a
// warm memo, must produce byte-identical output to a from-scratch
// planner on the same log.
func TestPlanDeltaByteIdenticalToScratch(t *testing.T) {
	lg, err := Split(testSpec(), []int{2, 2}, []int{0, 500})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(0)
	first := mustPlan(t, pl, lg)
	if first.Reused != 0 || first.Replanned != 2 {
		t.Fatalf("cold plan reused/replanned = %d/%d, want 0/2", first.Reused, first.Replanned)
	}

	// Mutate the tail: the last segment's final kernel gets a different
	// compute cost.
	raw, err := lg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	mut, err := ParseLog(raw)
	if err != nil {
		t.Fatal(err)
	}
	last := &mut.Segments[len(mut.Segments)-1]
	last.Kernels[len(last.Kernels)-1].ComputeCycles += 111

	warm := mustPlan(t, pl, mut)
	if warm.Reused != 1 || warm.Replanned != 1 {
		t.Errorf("delta plan reused/replanned = %d/%d, want 1/1", warm.Reused, warm.Replanned)
	}
	scratch := mustPlan(t, NewPlanner(0), mut)
	if scratch.Reused != 0 {
		t.Errorf("fresh planner reused %d segments", scratch.Reused)
	}

	wb, err := warm.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := scratch.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb, sb) {
		t.Errorf("delta-replanned plan differs from from-scratch plan:\nwarm:    %s\nscratch: %s", wb, sb)
	}

	// Replanning the unmutated log again is a pure memo walk.
	again := mustPlan(t, pl, lg)
	if again.Replanned != 0 || again.Reused != 2 {
		t.Errorf("warm replan of unchanged log reused/replanned = %d/%d, want 2/0", again.Reused, again.Replanned)
	}
}

// The fingerprint covers content, not arrival time: moving a burst in
// time reuses its schedule; touching its content does not.
func TestSegmentKeyContentOnly(t *testing.T) {
	lg, err := Split(testSpec(), []int{2, 2}, []int{0, 500})
	if err != nil {
		t.Fatal(err)
	}
	pa := lg.Params()
	a := segmentKey(pa, lg.Iterations, &lg.Segments[1])

	shifted := lg.Segments[1]
	shifted.At += 10_000
	if b := segmentKey(pa, lg.Iterations, &shifted); a != b {
		t.Error("arrival-time shift changed the segment fingerprint")
	}
	mutated := lg.Segments[1]
	mutated.Kernels = append([]spec.Kernel{}, mutated.Kernels...)
	mutated.Kernels[0].ContextWords++
	if b := segmentKey(pa, lg.Iterations, &mutated); a == b {
		t.Error("kernel change did not move the segment fingerprint")
	}
	if b := segmentKey(pa, lg.Iterations+1, &lg.Segments[1]); a == b {
		t.Error("iteration change did not move the segment fingerprint")
	}
	pb := pa
	pb.CMWords *= 2
	if b := segmentKey(pb, lg.Iterations, &lg.Segments[1]); a == b {
		t.Error("machine change did not move the segment fingerprint")
	}
}

// The segment fingerprints of one generated arrival scenario are pinned
// in hex: the canonical encoding (and so every memo key a long-lived
// planner or a peer ever saw) must not drift when the code behind it is
// reorganized.
func TestSegmentKeyPinned(t *testing.T) {
	want := []string{
		"acda5c89ca89c3a2721d723acb9d113efe5a7fcdeea8f76a8588336412be8800",
		"126d9e1ad4aae0862b748ac57d0a31ffad698c0f1d6317d3b598acc073c0c8a4",
		"be03b50908e5cc47f5ff7950409ae817cbc86fda78bacef260175df3a89af1a0",
		"63962a23036188edcd47fffa52b10225313d3d9ac4c216f853ca6a8b285cf7b4",
		"d088478b8de5935e530ba72a87a7cca836dfef8b4481456a27987146ffa8ec33",
		"677e191642aebead2f023c57066b0691f09f916467d6cf27bde5bfca0324d526",
		"46ae23a925e5c9aa2e8b34af690ca688bf8815ad3a98edd4cad5d9e8690c51a6",
		"3aab35da9ddef5fe306607a9c1eeab144383fc3248e7e98299e674e2fed917a9",
		"c244ddf3c894d0a49490d31e2b93498d4a5932002b2a2f65eb20c18137349139",
		"6a139318829983432ac6171ae519c1e4a69d03bb040c9a34fe35ae12b0334367",
		"fed16947b8df807d04c957af6e62bb96f427e14d1950882096384ee04fe403b6",
	}
	a := workloads.GenArrivals(1, 0)
	lg, err := Split(a.Spec, a.SegClusters, a.ArriveAt)
	if err != nil {
		t.Fatal(err)
	}
	if len(lg.Segments) != len(want) {
		t.Fatalf("%s split into %d segments, want %d", a.Name, len(lg.Segments), len(want))
	}
	pa := lg.Params()
	for i := range lg.Segments {
		if got := fmt.Sprintf("%x", segmentKey(pa, lg.Iterations, &lg.Segments[i])); got != want[i] {
			t.Errorf("%s: fingerprint %s, want %s", lg.SegmentName(i), got, want[i])
		}
	}
}

// The memo is bounded: with room for one segment, a two-segment working
// set thrashes rather than grows.
func TestPlannerMemoBounded(t *testing.T) {
	lg, err := Split(testSpec(), []int{2, 2}, []int{0, 500})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(1)
	mustPlan(t, pl, lg)
	if n := pl.MemoLen(); n != 1 {
		t.Errorf("memo holds %d segments, bound is 1", n)
	}
	// Both segments replan every time — neither survives the other's
	// eviction.
	p := mustPlan(t, pl, lg)
	if p.Reused != 0 || p.Replanned != 2 {
		t.Errorf("thrashing memo reused/replanned = %d/%d, want 0/2", p.Reused, p.Replanned)
	}
}

// A planned stream must satisfy the prefetch invariant family, with and
// without prefetch, and the prefetch makespan must not exceed the
// serialized baseline.
func TestPlanStreamsVerify(t *testing.T) {
	lg, err := Split(testSpec(), []int{1, 1, 1, 1}, []int{0, 50, 600, 700})
	if err != nil {
		t.Fatal(err)
	}
	plan := mustPlan(t, NewPlanner(0), lg)
	for _, prefetch := range []bool{false, true} {
		if err := verify.Stream(plan.Schedule, plan.Opts(prefetch)); err != nil {
			t.Errorf("prefetch=%v: %v", prefetch, err)
		}
	}
	serial, err := plan.Run(false)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := plan.Run(true)
	if err != nil {
		t.Fatal(err)
	}
	if pre.TotalCycles > serial.TotalCycles {
		t.Errorf("prefetch makespan %d exceeds serialized %d", pre.TotalCycles, serial.TotalCycles)
	}
}

// Generated arrival scenarios plan deterministically and stream-verify;
// infeasible scenarios must fail identically across planners.
func TestPlanGeneratedArrivals(t *testing.T) {
	planned := 0
	for i := 0; i < 12; i++ {
		a := workloads.GenArrivals(7, i)
		lg, err := Split(a.Spec, a.SegClusters, a.ArriveAt)
		if err != nil {
			t.Fatalf("%s: split: %v", a.Name, err)
		}
		p1, err1 := NewPlanner(0).Plan(context.Background(), lg)
		p2, err2 := NewPlanner(0).Plan(context.Background(), lg)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: planners disagree: %v vs %v", a.Name, err1, err2)
		}
		if err1 != nil {
			continue // infeasible on its machine — legal for generated scenarios
		}
		planned++
		b1, _ := p1.MarshalCanonical()
		b2, _ := p2.MarshalCanonical()
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s: non-deterministic plan", a.Name)
		}
		for _, prefetch := range []bool{false, true} {
			if err := verify.Stream(p1.Schedule, p1.Opts(prefetch)); err != nil {
				t.Errorf("%s prefetch=%v: %v", a.Name, prefetch, err)
			}
		}
	}
	if planned == 0 {
		t.Error("no generated scenario planned successfully; corpus too hostile")
	}
}

func TestParseLogRejections(t *testing.T) {
	cases := []struct {
		name string
		raw  string
	}{
		{"malformed", `{"name":`},
		{"no segments", `{"name":"x","iterations":1,"segments":[]}`},
		{"bad iterations", `{"name":"x","iterations":0,"segments":[{"at":0,"kernels":[],"clusters":[]}]}`},
		{"negative at", `{"name":"x","iterations":1,"segments":[{"at":-1,"kernels":[],"clusters":[]}]}`},
	}
	for _, c := range cases {
		if _, err := ParseLog([]byte(c.raw)); !errors.Is(err, scherr.ErrInvalidSpec) {
			t.Errorf("%s: err = %v, want ErrInvalidSpec", c.name, err)
		}
	}

	lg, err := Split(testSpec(), []int{2, 2}, []int{0, 500})
	if err != nil {
		t.Fatal(err)
	}
	lg.Segments[1].At = 0
	lg.Segments[0].At = 500
	if err := lg.Validate(); !errors.Is(err, scherr.ErrInvalidSpec) {
		t.Errorf("decreasing arrivals: err = %v, want ErrInvalidSpec", err)
	}
}

func TestSplitRejections(t *testing.T) {
	sp := testSpec()
	if _, err := Split(sp, nil, nil); !errors.Is(err, scherr.ErrInvalidSpec) {
		t.Error("empty sizes accepted")
	}
	if _, err := Split(sp, []int{4}, []int{0, 1}); !errors.Is(err, scherr.ErrInvalidSpec) {
		t.Error("mismatched ats accepted")
	}
	if _, err := Split(sp, []int{3}, []int{0}); !errors.Is(err, scherr.ErrInvalidSpec) {
		t.Error("partial cluster cover accepted")
	}
	if _, err := Split(sp, []int{0, 4}, []int{0, 1}); !errors.Is(err, scherr.ErrInvalidSpec) {
		t.Error("zero-size segment accepted")
	}
}
