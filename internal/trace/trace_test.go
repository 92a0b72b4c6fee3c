package trace

import (
	"strings"
	"testing"
)

// handTimeline builds the canonical two-visit double-buffered shape:
//
//	DMA: ctx[0,4) load[4,10)           store[20,24) ctx[24,26) load[26,30)
//	RC:            compute[10,20)                   compute[30,40)
func handTimeline() *Timeline {
	r := NewRecorder()
	r.Span(Span{Resource: DMA, Kind: KindContext, Name: "ctx", Start: 0, End: 4, Cluster: 0, Words: 8})
	r.Span(Span{Resource: DMA, Kind: KindLoad, Name: "a", Start: 4, End: 10, Cluster: 0, Bytes: 24})
	r.Span(Span{Resource: RCArray, Kind: KindCompute, Name: "c0", Start: 10, End: 20, Cluster: 0})
	r.Span(Span{Resource: DMA, Kind: KindStore, Name: "r", Start: 20, End: 24, Cluster: 0, Bytes: 16})
	r.Span(Span{Resource: DMA, Kind: KindContext, Name: "ctx", Start: 24, End: 26, Cluster: 1, Words: 4})
	r.Span(Span{Resource: DMA, Kind: KindLoad, Name: "b", Start: 26, End: 30, Cluster: 1, Bytes: 16})
	r.Span(Span{Resource: RCArray, Kind: KindCompute, Name: "c1", Start: 30, End: 40, Cluster: 1})
	r.Mark(Mark{Kind: MarkFBSwitch, Cycle: 30, Name: "set 0 -> 1", Visit: 1})
	return r.Timeline("hand", 40)
}

// overlapTimeline has DMA traffic fully hidden under compute.
func overlapTimeline() *Timeline {
	r := NewRecorder()
	r.Span(Span{Resource: RCArray, Kind: KindCompute, Name: "c0", Start: 0, End: 100})
	r.Span(Span{Resource: DMA, Kind: KindLoad, Name: "a", Start: 10, End: 40, Bytes: 120, Cluster: 1})
	r.Span(Span{Resource: DMA, Kind: KindContext, Name: "ctx", Start: 40, End: 50, Words: 16, Cluster: 1})
	return r.Timeline("overlap", 100)
}

func TestNilRecorderShortCircuits(t *testing.T) {
	var r *Recorder
	r.Span(Span{Resource: DMA, Kind: KindLoad, Start: 0, End: 5})
	r.Mark(Mark{Kind: MarkFBSwitch})
	if tl := r.Timeline("nil", 10); tl != nil {
		t.Fatalf("nil recorder produced a timeline: %+v", tl)
	}
}

func TestRecorderDropsEmptySpans(t *testing.T) {
	r := NewRecorder()
	r.Span(Span{Resource: DMA, Kind: KindLoad, Start: 5, End: 5})
	r.Span(Span{Resource: DMA, Kind: KindLoad, Start: 7, End: 6})
	if tl := r.Timeline("empty", 10); len(tl.Spans) != 0 {
		t.Fatalf("zero/negative-length spans recorded: %+v", tl.Spans)
	}
}

func TestTileDerivesIdleGaps(t *testing.T) {
	tl := handTimeline()
	tiles, err := Tile(tl)
	if err != nil {
		t.Fatal(err)
	}
	dma, rc := tiles[DMA], tiles[RCArray]
	if dma == nil || rc == nil {
		t.Fatalf("missing tilings: %+v", tiles)
	}
	if dma.BusyCycles != 20 || dma.IdleCycles != 20 {
		t.Errorf("DMA busy/idle = %d/%d, want 20/20", dma.BusyCycles, dma.IdleCycles)
	}
	if rc.BusyCycles != 20 || rc.IdleCycles != 20 {
		t.Errorf("RC busy/idle = %d/%d, want 20/20", rc.BusyCycles, rc.IdleCycles)
	}
	// The idle gaps of the RC track: [0,10) and [20,30).
	if len(rc.Idle) != 2 || rc.Idle[0] != [2]int{0, 10} || rc.Idle[1] != [2]int{20, 30} {
		t.Errorf("RC idle gaps = %v", rc.Idle)
	}
}

func TestTileRejectsOverlapAndOutOfRange(t *testing.T) {
	r := NewRecorder()
	r.Span(Span{Resource: DMA, Kind: KindLoad, Start: 0, End: 10})
	r.Span(Span{Resource: DMA, Kind: KindLoad, Start: 5, End: 15})
	if _, err := Tile(r.Timeline("overlapping", 20)); err == nil {
		t.Error("overlapping spans accepted")
	}

	r = NewRecorder()
	r.Span(Span{Resource: DMA, Kind: KindLoad, Start: 0, End: 30})
	if _, err := Tile(r.Timeline("oversized", 20)); err == nil {
		t.Error("span beyond makespan accepted")
	}

	if _, err := Tile(nil); err == nil {
		t.Error("nil timeline accepted")
	}
}

// TestCheckTilingMatchesTile pins CheckTiling to Tile's verdict and
// error text, for spans in start order (checked in place) and out of it
// (checked on the sorted copy).
func TestCheckTilingMatchesTile(t *testing.T) {
	span := func(start, end int) Span {
		return Span{Resource: DMA, Kind: KindLoad, Name: "x", Start: start, End: end}
	}
	for _, tc := range []struct {
		name     string
		spans    []Span
		makespan int
	}{
		{"ordered", []Span{span(0, 4), span(6, 10)}, 12},
		{"unordered", []Span{span(6, 10), span(0, 4)}, 12},
		{"overlap", []Span{span(0, 10), span(5, 15)}, 20},
		{"unordered overlap", []Span{span(5, 15), span(0, 10)}, 20},
		{"oversized", []Span{span(0, 30)}, 20},
		{"negative", []Span{span(-2, 3)}, 20},
		{"empty", nil, 20},
	} {
		tl := &Timeline{Label: tc.name, Makespan: tc.makespan, Spans: tc.spans}
		_, want := Tile(tl)
		got := CheckTiling(tl)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Errorf("%s: CheckTiling = %v, Tile = %v", tc.name, got, want)
		}
	}
	if err := CheckTiling(handTimeline()); err != nil {
		t.Errorf("hand timeline: %v", err)
	}
	if err := CheckTiling(nil); err == nil {
		t.Error("nil timeline accepted")
	}
}

// TestGrowKeepsEmptyTimelineNil pins that reserving room records
// nothing: a timeline with no spans or marks keeps nil lists.
func TestGrowKeepsEmptyTimelineNil(t *testing.T) {
	r := NewRecorder()
	r.Grow(8, 2)
	tl := r.Timeline("empty", 0)
	if tl.Spans != nil || tl.Marks != nil {
		t.Errorf("Grow left non-nil empty lists: %+v", tl)
	}
}

func TestAnalyzeDecomposition(t *testing.T) {
	a := Analyze(handTimeline())
	if a.Makespan != 40 || a.DMABusy != 20 || a.RCBusy != 20 {
		t.Fatalf("busy totals wrong: %+v", a)
	}
	if a.DMAUtilPct != 50 || a.RCUtilPct != 50 {
		t.Errorf("utilization = %.1f/%.1f, want 50/50", a.DMAUtilPct, a.RCUtilPct)
	}
	// No transfer overlaps compute in the hand timeline.
	if a.OverlapCycles != 0 || a.OverlapPct != 0 {
		t.Errorf("overlap = %d (%.1f%%), want 0", a.OverlapCycles, a.OverlapPct)
	}
	// Makespan tiles: compute 20 + exposed ctx 6 + exposed loads 10 + exposed stores 4 + dead 0.
	p := a.Path
	if p.Compute != 20 || p.ExposedCtx != 6 || p.ExposedLoad != 10 || p.ExposedStore != 4 || p.Dead != 0 {
		t.Errorf("critical path = %+v", p)
	}
	if sum := p.Compute + p.ExposedCtx + p.ExposedLoad + p.ExposedStore + p.Dead; sum != a.Makespan {
		t.Errorf("decomposition sums to %d, makespan %d", sum, a.Makespan)
	}
	if a.FBSwitches != 1 || a.CMLoads != 2 {
		t.Errorf("events: switches=%d cm=%d, want 1/2", a.FBSwitches, a.CMLoads)
	}
	if len(a.Clusters) != 2 || a.Clusters[0].Cluster != 0 || a.Clusters[1].Cluster != 1 {
		t.Fatalf("clusters = %+v", a.Clusters)
	}
	if a.Clusters[0].LoadBytes != 24 || a.Clusters[0].StoreBytes != 16 || a.Clusters[0].CtxWords != 8 {
		t.Errorf("cluster 0 volumes = %+v", a.Clusters[0])
	}
}

func TestAnalyzeFullOverlap(t *testing.T) {
	a := Analyze(overlapTimeline())
	if a.OverlapCycles != 40 || a.OverlapPct != 100 {
		t.Errorf("overlap = %d (%.1f%%), want 40 (100%%)", a.OverlapCycles, a.OverlapPct)
	}
	if a.Path.ExposedCtx != 0 || a.Path.ExposedLoad != 0 || a.Path.ExposedStore != 0 {
		t.Errorf("exposed cycles under full overlap: %+v", a.Path)
	}
	if a.Path.Compute != 100 || a.Path.Dead != 0 {
		t.Errorf("path = %+v", a.Path)
	}
}

func TestAnalyzeDeadTime(t *testing.T) {
	r := NewRecorder()
	r.Span(Span{Resource: RCArray, Kind: KindCompute, Start: 0, End: 10})
	r.Span(Span{Resource: DMA, Kind: KindLoad, Start: 20, End: 30})
	a := Analyze(r.Timeline("gappy", 40))
	// [10,20) and [30,40) are dead: both resources idle.
	if a.Path.Dead != 20 {
		t.Errorf("dead = %d, want 20 (path %+v)", a.Path.Dead, a.Path)
	}
}

func TestChromeRoundTrip(t *testing.T) {
	var b strings.Builder
	if err := WriteChrome(&b, handTimeline(), overlapTimeline()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`"traceEvents"`, "RC array", "DMA channel", "hand", "overlap", `"ph":"i"`} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome export missing %q", want)
		}
	}
	n, err := ValidateChrome(strings.NewReader(out))
	if err != nil {
		t.Fatalf("exported trace fails validation: %v", err)
	}
	if n != 10 { // 7 spans in hand + 3 in overlap
		t.Errorf("validated %d complete events, want 10", n)
	}
}

func TestValidateChromeRejects(t *testing.T) {
	cases := map[string]string{
		"not json":        `{"traceEvents": [`,
		"empty":           `{"traceEvents": []}`,
		"negative":        `{"traceEvents": [{"ph":"X","ts":-1,"dur":5,"pid":1,"tid":1}]}`,
		"non-monotone":    `{"traceEvents": [{"ph":"X","ts":10,"dur":5,"pid":1,"tid":1},{"ph":"X","ts":3,"dur":2,"pid":1,"tid":1}]}`,
		"overlapping":     `{"traceEvents": [{"ph":"X","ts":0,"dur":10,"pid":1,"tid":1},{"ph":"X","ts":5,"dur":2,"pid":1,"tid":1}]}`,
		"unknown phase":   `{"traceEvents": [{"ph":"Z","ts":0,"pid":1,"tid":1}]}`,
		"plain non-array": `42`,
	}
	for name, doc := range cases {
		if _, err := ValidateChrome(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestWriteSVG(t *testing.T) {
	var b strings.Builder
	if err := WriteSVG(&b, handTimeline(), overlapTimeline()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"<svg", "</svg>", "RC array", "DMA", "hand", "overlap", "stroke-dasharray"} {
		if !strings.Contains(out, want) {
			t.Errorf("svg missing %q", want)
		}
	}
	if err := WriteSVG(&strings.Builder{}); err == nil {
		t.Error("empty timeline list accepted")
	}
	// Hostile datum names must be escaped.
	r := NewRecorder()
	r.Span(Span{Resource: DMA, Kind: KindLoad, Name: `<x>&"y"`, Start: 0, End: 5})
	var hb strings.Builder
	if err := WriteSVG(&hb, r.Timeline(`<lbl>`, 10)); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(hb.String(), "<x>") || strings.Contains(hb.String(), "<lbl>") {
		t.Error("unescaped markup in SVG output")
	}
}

func TestWriteSummaryAndDiff(t *testing.T) {
	var b strings.Builder
	WriteSummary(&b, handTimeline())
	out := b.String()
	for _, want := range []string{"hand: 40 cycles", "RC array", "overlap", "makespan", "cluster"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}

	b.Reset()
	WriteDiff(&b, handTimeline(), overlapTimeline())
	out = b.String()
	for _, want := range []string{"timeline", "hand", "overlap", "+150.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff missing %q:\n%s", want, out)
		}
	}

	b.Reset()
	WriteDiff(&b)
	if !strings.Contains(b.String(), "no timelines") {
		t.Error("empty diff not reported")
	}
}

func TestRingBounds(t *testing.T) {
	r := NewRing(3, 100)
	pay := func(n int) []byte { return make([]byte, n) }
	for i := 0; i < 5; i++ {
		r.Add(RingEntry{Label: "t", Chrome: pay(10)})
	}
	s := r.Stats()
	if s.Entries != 3 || s.Recorded != 5 || s.Evicted != 2 {
		t.Fatalf("entry bound: %+v", s)
	}
	snap := r.Snapshot()
	if len(snap) != 3 || snap[0].Seq != 3 || snap[2].Seq != 5 {
		t.Fatalf("snapshot = %+v", snap)
	}

	// Byte budget evicts even below the entry bound.
	r = NewRing(100, 100)
	r.Add(RingEntry{Chrome: pay(60)})
	r.Add(RingEntry{Chrome: pay(60)})
	s = r.Stats()
	if s.Entries != 1 || s.Bytes != 60 || s.Evicted != 1 {
		t.Fatalf("byte budget: %+v", s)
	}

	// Oversize payloads are rejected, not truncated.
	r.Add(RingEntry{Chrome: pay(1000)})
	s = r.Stats()
	if s.Oversize != 1 || s.Entries != 1 {
		t.Fatalf("oversize: %+v", s)
	}
}

func TestRingNeverExceedsBudget(t *testing.T) {
	r := NewRing(64, 256)
	for i := 0; i < 200; i++ {
		r.Add(RingEntry{Chrome: make([]byte, 1+i%100)})
		if s := r.Stats(); s.Bytes > 256 {
			t.Fatalf("budget exceeded at add %d: %+v", i, s)
		}
	}
}

func TestStringers(t *testing.T) {
	if DMA.String() != "DMA" || RCArray.String() != "RC array" {
		t.Error("resource names")
	}
	if KindContext.String() != "context" || KindCompute.String() != "compute" {
		t.Error("kind names")
	}
	if MarkFBSwitch.String() != "fb-switch" {
		t.Error("mark name")
	}
	if Resource(9).String() == "" || Kind(9).String() == "" || MarkKind(9).String() == "" {
		t.Error("fallback names")
	}
}
