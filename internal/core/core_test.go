package core

import (
	"errors"
	"strings"
	"testing"

	"cds/internal/app"
	"cds/internal/arch"
	"cds/internal/extract"
)

// pipeApp is the canonical three-cluster test application:
//
//	cluster 0 (set 0): k1(inA,x -> m), k2(m -> r2, rB)
//	cluster 1 (set 1): k3(r2 -> out1)
//	cluster 2 (set 0): k4(inA, rB -> out2)
//
// inA is shared data between clusters 0 and 2 (same set); rB is a shared
// result from cluster 0 to cluster 2 (same set); r2 crosses sets.
func pipeApp(t testing.TB, iterations int) *app.Partition {
	t.Helper()
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
	// Shrink the context memory to two kernels' worth so visits evict
	// each other and the RF effect on context traffic is visible.
	p.CMWords = 32
	return p
}

func TestClusterFootprintInPlace(t *testing.T) {
	p := pipeApp(t, 4)
	info := extract.Analyze(p)
	opts := FootprintOpts{InPlaceRelease: true}
	// Cluster 0: peak while k1 runs: inA+x+m = 180.
	if got := ClusterFootprint(info, 0, opts); got != 180 {
		t.Errorf("cluster 0 footprint = %d, want 180", got)
	}
	// Cluster 1: r2 + out1 = 80.
	if got := ClusterFootprint(info, 1, opts); got != 80 {
		t.Errorf("cluster 1 footprint = %d, want 80", got)
	}
	// Cluster 2: inA + rB + out2 = 160.
	if got := ClusterFootprint(info, 2, opts); got != 160 {
		t.Errorf("cluster 2 footprint = %d, want 160", got)
	}
}

func TestClusterFootprintBasic(t *testing.T) {
	p := pipeApp(t, 4)
	info := extract.Analyze(p)
	opts := FootprintOpts{InPlaceRelease: false}
	// Everything the cluster touches stays live: 100+50+30+60+40 = 280.
	if got := ClusterFootprint(info, 0, opts); got != 280 {
		t.Errorf("cluster 0 basic footprint = %d, want 280", got)
	}
	if got := MaxClusterFootprint(info, -1, opts); got != 280 {
		t.Errorf("max footprint = %d, want 280", got)
	}
	if got := MaxClusterFootprint(info, 1, opts); got != 80 {
		t.Errorf("set-1 max footprint = %d, want 80", got)
	}
}

func TestClusterFootprintPinned(t *testing.T) {
	p := pipeApp(t, 4)
	info := extract.Analyze(p)
	// Pinning inA prevents its release after k1: peak moves to k2's
	// execution: inA + m + r2 + rB = 230.
	opts := FootprintOpts{InPlaceRelease: true, Pinned: map[string]bool{"inA": true}}
	if got := ClusterFootprint(info, 0, opts); got != 230 {
		t.Errorf("cluster 0 pinned footprint = %d, want 230", got)
	}
	// A pinned object the cluster never touches still occupies space.
	opts = FootprintOpts{InPlaceRelease: true, Pinned: map[string]bool{"rB": true}}
	if got := ClusterFootprint(info, 1, opts); got != 80+40 {
		t.Errorf("cluster 1 with foreign pin = %d, want 120", got)
	}
}

func TestCommonRF(t *testing.T) {
	p := pipeApp(t, 4)
	info := extract.Analyze(p)
	// Max in-place footprint is 180 (cluster 0): FBS=360 allows RF=2.
	if got := CommonRF(360, info, true, nil); got != 2 {
		t.Errorf("CommonRF(360) = %d, want 2", got)
	}
	// FBS=180 allows exactly RF=1. Below that the raw division yields 0,
	// but CommonRF clamps to the documented >= 1 floor: callers only
	// reach it after feasibleRF has proven RF=1 viable, so 0 would just
	// desynchronize them from blocks()'s rf<1 guard.
	if got := CommonRF(180, info, true, nil); got != 1 {
		t.Errorf("CommonRF(180) = %d, want 1", got)
	}
	if got := CommonRF(179, info, true, nil); got != 1 {
		t.Errorf("CommonRF(179) = %d, want 1 (clamped floor)", got)
	}
	// Iteration cap: a huge FB cannot push RF past Iterations.
	if got := CommonRF(1<<20, info, true, nil); got != 4 {
		t.Errorf("CommonRF(huge) = %d, want 4 (iteration cap)", got)
	}
}

func TestBlocks(t *testing.T) {
	tests := []struct {
		iters, rf int
		want      []int
	}{
		{4, 2, []int{2, 2}},
		{5, 2, []int{2, 2, 1}}, // tail block shorter than RF
		{7, 3, []int{3, 3, 1}}, // iterations not divisible by RF
		{3, 1, []int{1, 1, 1}},
		{2, 10, []int{2}},       // rf >= iterations: one block
		{5, 5, []int{5}},        // rf == iterations exactly
		{1, 0, []int{1}},        // rf clamped to 1
		{3, -2, []int{1, 1, 1}}, // negative rf clamped to 1
		{0, 3, nil},             // nothing to execute
	}
	for _, tt := range tests {
		got := blocks(tt.iters, tt.rf)
		if len(got) != len(tt.want) {
			t.Errorf("blocks(%d,%d) = %v, want %v", tt.iters, tt.rf, got, tt.want)
			continue
		}
		sum := 0
		for i := range got {
			sum += got[i]
			if got[i] != tt.want[i] {
				t.Errorf("blocks(%d,%d) = %v, want %v", tt.iters, tt.rf, got, tt.want)
				break
			}
		}
		if sum != tt.iters {
			t.Errorf("blocks(%d,%d) covers %d iterations", tt.iters, tt.rf, sum)
		}
	}
}

func TestTFFormulas(t *testing.T) {
	// TF(D) = D*(N-1)/TDS; TF(R) = R*(N+1)/TDS.
	if got := TFData(100, 2, 320); got != 100.0/320.0 {
		t.Errorf("TFData = %v, want %v", got, 100.0/320.0)
	}
	if got := TFResult(40, 1, 320); got != 80.0/320.0 {
		t.Errorf("TFResult = %v, want %v", got, 80.0/320.0)
	}
	// The result bonus: equal size and N, a result outranks a datum
	// (it additionally avoids the store).
	if TFResult(50, 2, 100) <= TFData(50, 2, 100) {
		t.Error("TFResult should exceed TFData at equal size and N")
	}
}

func TestSelectRetentionTFOrder(t *testing.T) {
	p := pipeApp(t, 4)
	info := extract.Analyze(p)
	// At RF=2 with FBS=360, retaining inA is infeasible (cluster 0
	// would need 2*230=460) but retaining rB fits exactly (2*180=360).
	kept := selectRetention(360, info, 2, RankTF)
	if len(kept) != 1 || kept[0].Name != "rB" || kept[0].Kind != RetainedResult {
		t.Fatalf("kept = %+v, want only result rB", kept)
	}
	if kept[0].From != 0 || kept[0].To != 2 {
		t.Errorf("rB span = %d..%d, want 0..2", kept[0].From, kept[0].To)
	}
	// rB is neither final nor cross-set: store+reload avoided = 80/iter.
	if kept[0].AvoidedBytesPerIter != 80 {
		t.Errorf("avoided = %d, want 80", kept[0].AvoidedBytesPerIter)
	}
	// With a roomier FB both candidates fit.
	kept = selectRetention(1000, info, 2, RankTF)
	if len(kept) != 2 {
		t.Fatalf("kept = %+v, want both inA and rB", kept)
	}
}

func TestBasicScheduler(t *testing.T) {
	part := pipeApp(t, 4)
	s, err := Basic{}.Schedule(testArch(360), part)
	if err != nil {
		t.Fatal(err)
	}
	if s.RF != 1 {
		t.Errorf("basic RF = %d, want 1", s.RF)
	}
	if s.NumVisits() != 4*3 {
		t.Fatalf("visits = %d, want 12 (4 iterations x 3 clusters)", s.NumVisits())
	}
	// Per iteration: loads inA+x (c0) + r2 (c1) + inA+rB (c2) = 350;
	// stores r2+rB (c0) + out1 (c1) + out2 (c2) = 140.
	if got := s.TotalLoadBytes(); got != 4*350 {
		t.Errorf("loads = %d, want %d", got, 4*350)
	}
	if got := s.TotalStoreBytes(); got != 4*140 {
		t.Errorf("stores = %d, want %d", got, 4*140)
	}
	if len(s.Retained) != 0 {
		t.Error("basic scheduler must not retain anything")
	}
}

func TestBasicInfeasible(t *testing.T) {
	part := pipeApp(t, 4)
	// Basic needs 280 bytes for cluster 0; DS needs only 180.
	_, err := Basic{}.Schedule(testArch(200), part)
	var ie *InfeasibleError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want InfeasibleError", err)
	}
	if ie.Cluster != 0 || ie.Need != 280 || ie.Have != 200 {
		t.Errorf("InfeasibleError = %+v, want cluster 0 need 280 have 200", ie)
	}
	if _, err := (DataScheduler{}).Schedule(testArch(200), part); err != nil {
		t.Errorf("DS should fit in 200 bytes: %v", err)
	}
}

func TestDataScheduler(t *testing.T) {
	part := pipeApp(t, 4)
	s, err := DataScheduler{}.Schedule(testArch(360), part)
	if err != nil {
		t.Fatal(err)
	}
	if s.RF != 2 {
		t.Errorf("DS RF = %d, want 2", s.RF)
	}
	if s.NumVisits() != 2*3 {
		t.Fatalf("visits = %d, want 6 (2 blocks x 3 clusters)", s.NumVisits())
	}
	// Same data traffic as basic (no retention), just batched.
	if got := s.TotalLoadBytes(); got != 4*350 {
		t.Errorf("loads = %d, want %d", got, 4*350)
	}
	// Context traffic halves versus basic (2 visits instead of 4 per
	// cluster; CM thrashing makes every visit a full reload here).
	basicS, err := Basic{}.Schedule(testArch(360), part)
	if err != nil {
		t.Fatal(err)
	}
	if 2*s.TotalCtxWords() != basicS.TotalCtxWords() {
		t.Errorf("ctx words: ds=%d basic=%d, want exactly half", s.TotalCtxWords(), basicS.TotalCtxWords())
	}
}

func TestCompleteDataScheduler(t *testing.T) {
	part := pipeApp(t, 4)
	s, err := CompleteDataScheduler{}.Schedule(testArch(360), part)
	if err != nil {
		t.Fatal(err)
	}
	if s.RF != 2 {
		t.Errorf("CDS RF = %d, want 2", s.RF)
	}
	if len(s.Retained) != 1 || s.Retained[0].Name != "rB" {
		t.Fatalf("retained = %+v, want rB only", s.Retained)
	}
	// rB retention removes its store at cluster 0 and its load at
	// cluster 2: per iteration 350-40=310 loaded, 140-40=100 stored.
	if got := s.TotalLoadBytes(); got != 4*310 {
		t.Errorf("loads = %d, want %d", got, 4*310)
	}
	if got := s.TotalStoreBytes(); got != 4*100 {
		t.Errorf("stores = %d, want %d", got, 4*100)
	}
	if got := s.AvoidedBytesPerIter(); got != 80 {
		t.Errorf("avoided/iter = %d, want 80", got)
	}
}

func TestCDSRetainsSharedDataWhenRoomy(t *testing.T) {
	part := pipeApp(t, 4)
	s, err := CompleteDataScheduler{}.Schedule(testArch(2048), part)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, r := range s.Retained {
		names[r.Name] = true
	}
	if !names["inA"] || !names["rB"] {
		t.Fatalf("retained = %+v, want inA and rB", s.Retained)
	}
	// inA loaded only by cluster 0 now: per iteration loads =
	// inA+x (c0) + r2 (c1) + nothing (c2) = 210.
	perIter := s.TotalLoadBytes() / 4
	if perIter != 210 {
		t.Errorf("loads/iter = %d, want 210", perIter)
	}
}

func TestCrossSetResultNotRetained(t *testing.T) {
	part := pipeApp(t, 4)
	s, err := CompleteDataScheduler{}.Schedule(testArch(1<<20), part)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Retained {
		if r.Name == "r2" {
			t.Fatal("r2 crosses FB sets and must not be retained")
		}
	}
	// r2 is still stored and loaded.
	found := false
	for _, v := range s.Visits() {
		for _, m := range v.Loads {
			if m.Datum == "r2" {
				found = true
			}
		}
	}
	if !found {
		t.Error("r2 must still be loaded by cluster 1")
	}
}

func TestSchedulerValidatesInputs(t *testing.T) {
	part := pipeApp(t, 4)
	bad := testArch(360)
	bad.BusBytes = 0
	if _, err := (Basic{}).Schedule(bad, part); err == nil {
		t.Error("invalid arch accepted")
	}
	badPart := &app.Partition{App: part.App} // no clusters
	if _, err := (Basic{}).Schedule(testArch(360), badPart); err == nil {
		t.Error("invalid partition accepted")
	}
}

func TestVisitAccessors(t *testing.T) {
	v := Visit{
		Loads:  []Movement{{Datum: "a", Bytes: 10}, {Datum: "b", Bytes: 20}},
		Stores: []Movement{{Datum: "c", Bytes: 5}},
	}
	if v.LoadBytes() != 30 || v.StoreBytes() != 5 {
		t.Errorf("LoadBytes/StoreBytes = %d/%d, want 30/5", v.LoadBytes(), v.StoreBytes())
	}
}

func TestRankingFunctions(t *testing.T) {
	cands := []Candidate{
		{Retained: Retained{Name: "small-hot", Size: 10, TF: 0.9}},
		{Retained: Retained{Name: "big-cold", Size: 100, TF: 0.1}},
		{Retained: Retained{Name: "mid", Size: 50, TF: 0.5}},
	}
	tf := append([]Candidate(nil), cands...)
	RankTF(tf)
	if tf[0].Name != "small-hot" || tf[2].Name != "big-cold" {
		t.Errorf("RankTF order = %v", []string{tf[0].Name, tf[1].Name, tf[2].Name})
	}
	bySize := append([]Candidate(nil), cands...)
	RankBySize(bySize)
	if bySize[0].Name != "big-cold" || bySize[2].Name != "small-hot" {
		t.Errorf("RankBySize order = %v", []string{bySize[0].Name, bySize[1].Name, bySize[2].Name})
	}
	fifo := append([]Candidate(nil), cands...)
	RankFIFO(fifo)
	if fifo[0].Name != "small-hot" || fifo[1].Name != "big-cold" {
		t.Error("RankFIFO must preserve order")
	}
}

func TestRetainedKindString(t *testing.T) {
	if RetainedData.String() != "data" || RetainedResult.String() != "result" {
		t.Error("RetainedKind.String broken")
	}
}

func TestInfeasibleErrorMessage(t *testing.T) {
	e := &InfeasibleError{Scheduler: "basic", Cluster: 3, Need: 100, Have: 50}
	msg := e.Error()
	for _, want := range []string{"basic", "3", "100", "50"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}
