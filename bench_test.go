package cds

// The benchmark harness regenerates the paper's evaluation artifacts:
//
//   - BenchmarkTable1/<row> reproduces one Table 1 row (and thereby one
//     Figure 6 bar pair): it runs Basic, DS and CDS on the workload and
//     reports the improvements, the reuse factor and the retention volume
//     as benchmark metrics.
//   - BenchmarkMPEGMemoryFloor reproduces the in-text result that the
//     Basic Scheduler cannot execute MPEG with a 1K frame buffer.
//   - BenchmarkFigure5Allocation exercises the section 5 allocator replay
//     (the Figure 5 timeline) on the MPEG workload.
//   - BenchmarkAblation* isolate design choices the paper calls out
//     (TF ranking, last-resort splitting).
//   - BenchmarkScaling measures scheduler cost on growing synthetic
//     workloads.
//
// Run with: go test -bench=. -benchmem

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"cds/internal/arch"

	"cds/internal/alloc"
	"cds/internal/core"
	"cds/internal/machine"
	"cds/internal/sim"
	"cds/internal/workloads"
)

// benchComparison runs the three schedulers once per iteration and
// reports the paper's metrics.
func benchComparison(b *testing.B, e workloads.Experiment) {
	b.Helper()
	b.ReportAllocs()
	var cmp *Comparison
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = CompareAll(e.Arch, e.Part)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cmp.ImprovementDS, "ds_impr_%")
	b.ReportMetric(cmp.ImprovementCDS, "cds_impr_%")
	b.ReportMetric(float64(cmp.RF), "rf")
	b.ReportMetric(float64(cmp.DTBytes), "dt_B/iter")
	if e.PaperDS >= 0 {
		b.ReportMetric(e.PaperDS, "paper_ds_%")
	}
	if e.PaperCDS >= 0 {
		b.ReportMetric(e.PaperCDS, "paper_cds_%")
	}
}

// BenchmarkTable1 regenerates every Table 1 row / Figure 6 bar pair.
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	for _, e := range workloads.All() {
		e := e
		b.Run(e.Name, func(b *testing.B) { benchComparison(b, e) })
	}
}

// BenchmarkMPEGMemoryFloor reproduces the paper's memory-floor result:
// at FB = 1K the Basic Scheduler is infeasible while DS and CDS run; the
// reported metric is the CDS execution time there.
func BenchmarkMPEGMemoryFloor(b *testing.B) {
	b.ReportAllocs()
	e := workloads.MPEGFloor()
	var cycles int
	for i := 0; i < b.N; i++ {
		if _, err := (core.Basic{}).Schedule(e.Arch, e.Part); err == nil {
			b.Fatal("basic scheduler unexpectedly fits MPEG in 1K")
		}
		s, err := (core.CompleteDataScheduler{}).Schedule(e.Arch, e.Part)
		if err != nil {
			b.Fatal(err)
		}
		r, err := sim.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		cycles = r.TotalCycles
	}
	b.ReportMetric(float64(cycles), "cds_cycles@1K")
}

// BenchmarkFigure5Allocation replays the section 5 allocation algorithm
// (the Figure 5 timeline) for the MPEG CDS schedule. It times the
// summary replay the comparison pipeline runs; the events metric counts
// the timeline the recording replay keeps.
func BenchmarkFigure5Allocation(b *testing.B) {
	b.ReportAllocs()
	e := workloads.MPEG()
	s, err := (core.CompleteDataScheduler{}).Schedule(e.Arch, e.Part)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := core.AllocateWithOptions(s, core.AllocOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rep *core.AllocationReport
	for i := 0; i < b.N; i++ {
		rep, err = core.Allocate(s, false)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Splits), "splits")
	b.ReportMetric(float64(rec.NumEvents()), "events")
	if !rep.Regular {
		b.Fatal("allocation lost regularity")
	}
}

// BenchmarkAblationRanking isolates the value of the paper's TF ranking
// on a workload where the frame buffer can keep only one of two competing
// shared objects: the TF ranking keeps the one avoiding more transfers.
func BenchmarkAblationRanking(b *testing.B) {
	b.ReportAllocs()
	e := workloads.RankingAblation()
	basicS, err := (core.Basic{}).Schedule(e.Arch, e.Part)
	if err != nil {
		b.Fatal(err)
	}
	basicR, err := sim.Run(basicS)
	if err != nil {
		b.Fatal(err)
	}
	rankings := []struct {
		name string
		fn   core.RankFunc
	}{
		{"tf", core.RankTF},
		{"size", core.RankBySize},
		{"fifo", core.RankFIFO},
	}
	for _, rk := range rankings {
		rk := rk
		b.Run(rk.name, func(b *testing.B) {
			b.ReportAllocs()
			var imp, avoided float64
			for i := 0; i < b.N; i++ {
				s, err := (core.CompleteDataScheduler{Ranking: rk.fn}).Schedule(e.Arch, e.Part)
				if err != nil {
					b.Fatal(err)
				}
				r, err := sim.Run(s)
				if err != nil {
					b.Fatal(err)
				}
				imp = sim.Improvement(basicR, r)
				avoided = float64(s.AvoidedBytesPerIter())
			}
			b.ReportMetric(imp, "cds_impr_%")
			b.ReportMetric(avoided, "avoided_B/iter")
		})
	}
}

// BenchmarkAblationSplit compares allocation with and without last-resort
// splitting across all experiments (the paper reports zero splits; this
// shows the mechanism is never needed on these workloads but costs
// nothing to have).
func BenchmarkAblationSplit(b *testing.B) {
	b.ReportAllocs()
	e := workloads.MPEG()
	s, err := (core.CompleteDataScheduler{}).Schedule(e.Arch, e.Part)
	if err != nil {
		b.Fatal(err)
	}
	for _, allow := range []bool{false, true} {
		allow := allow
		name := "forbidden"
		if allow {
			name = "allowed"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Allocate(s, allow); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationFit compares the allocator's block-selection policies
// (the paper uses first-fit) on the MPEG schedule: splits and peak
// occupancy are the quality metrics, ns/op the cost.
func BenchmarkAblationFit(b *testing.B) {
	b.ReportAllocs()
	e := workloads.MPEG()
	s, err := (core.CompleteDataScheduler{}).Schedule(e.Arch, e.Part)
	if err != nil {
		b.Fatal(err)
	}
	policies := []struct {
		name string
		p    alloc.FitPolicy
	}{
		{"first", alloc.FirstFit},
		{"best", alloc.BestFit},
		{"worst", alloc.WorstFit},
	}
	for _, pol := range policies {
		pol := pol
		b.Run(pol.name, func(b *testing.B) {
			b.ReportAllocs()
			var rep *core.AllocationReport
			for i := 0; i < b.N; i++ {
				rep, err = core.AllocateWithOptions(s, core.AllocOptions{AllowSplit: true, FitPolicy: pol.p})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.Splits), "splits")
			peak := 0
			for _, p := range rep.PeakUsed {
				if p > peak {
					peak = p
				}
			}
			b.ReportMetric(float64(peak), "peak_B")
		})
	}
}

// BenchmarkAblationTwoSided measures the paper's data-top/results-bottom
// placement discipline against placing everything from the top.
func BenchmarkAblationTwoSided(b *testing.B) {
	b.ReportAllocs()
	e := workloads.MPEG()
	s, err := (core.CompleteDataScheduler{}).Schedule(e.Arch, e.Part)
	if err != nil {
		b.Fatal(err)
	}
	for _, oneSided := range []bool{false, true} {
		oneSided := oneSided
		name := "two-sided"
		if oneSided {
			name = "one-sided"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var rep *core.AllocationReport
			for i := 0; i < b.N; i++ {
				rep, err = core.AllocateWithOptions(s, core.AllocOptions{AllowSplit: true, OneSided: oneSided})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.Splits), "splits")
			regular := 1.0
			if !rep.Regular {
				regular = 0
			}
			b.ReportMetric(regular, "regular")
		})
	}
}

// BenchmarkAblationCommonRF compares the paper's take-the-max RF policy
// against the RF guard scored by DMA cost, which picks the RF and its
// retention jointly, on every Table 1 experiment; the metric is how many
// experiments the joint choice actually speeds up (the paper's simpler
// policy is validated if this stays at 0).
func BenchmarkAblationCommonRF(b *testing.B) {
	b.ReportAllocs()
	exps := workloads.All()
	var wins int
	for i := 0; i < b.N; i++ {
		wins = 0
		for _, e := range exps {
			mx, err := (core.CompleteDataScheduler{}).Schedule(e.Arch, e.Part)
			if err != nil {
				b.Fatal(err)
			}
			sw, err := (core.CompleteDataScheduler{Eval: core.DMACost}).Schedule(e.Arch, e.Part)
			if err != nil {
				b.Fatal(err)
			}
			rMax, err := sim.Run(mx)
			if err != nil {
				b.Fatal(err)
			}
			rSweep, err := sim.Run(sw)
			if err != nil {
				b.Fatal(err)
			}
			if rSweep.TotalCycles < rMax.TotalCycles {
				wins++
			}
		}
	}
	b.ReportMetric(float64(wins), "sweep_wins")
}

// BenchmarkScaling measures end-to-end scheduler cost (analysis,
// retention selection, allocation, timing) on growing synthetic
// workloads.
func BenchmarkScaling(b *testing.B) {
	b.ReportAllocs()
	for _, clusters := range []int{4, 8, 16, 32} {
		clusters := clusters
		b.Run(benchName("clusters", clusters), func(b *testing.B) {
			b.ReportAllocs()
			cfg := workloads.DefaultSynthetic()
			cfg.Clusters = clusters
			part, err := workloads.Synthetic(cfg, 42)
			if err != nil {
				b.Fatal(err)
			}
			pa := workloads.SyntheticArch(cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(CDS, pa, part); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(prefix string, n int) string {
	return prefix + "=" + strconv.Itoa(n)
}

// BenchmarkCompareAll measures the wall-clock cost of one full
// three-scheduler comparison — the unit of work every sweep point and
// every Table 1 row pays. The synthetic variants grow the cluster count
// so the analysis and scheduling cost dominates the harness.
func BenchmarkCompareAll(b *testing.B) {
	b.ReportAllocs()
	cases := []struct {
		name string
		arch Arch
		part *Part
	}{}
	e := workloads.MPEG()
	cases = append(cases, struct {
		name string
		arch Arch
		part *Part
	}{"MPEG", e.Arch, e.Part})
	for _, clusters := range []int{8, 32} {
		cfg := workloads.DefaultSynthetic()
		cfg.Clusters = clusters
		part, err := workloads.Synthetic(cfg, 42)
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, struct {
			name string
			arch Arch
			part *Part
		}{benchName("synthetic/clusters", clusters), workloads.SyntheticArch(cfg), part})
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CompareAll(c.arch, c.part); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationOverlap quantifies what the double-buffered Frame
// Buffer buys: the same CDS schedule simulated with and without
// transfer/compute overlap, per experiment.
func BenchmarkAblationOverlap(b *testing.B) {
	b.ReportAllocs()
	for _, name := range []string{"E1*", "MPEG", "ATR-SLD"} {
		name := name
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			e, err := workloads.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			s, err := (core.CompleteDataScheduler{}).Schedule(e.Arch, e.Part)
			if err != nil {
				b.Fatal(err)
			}
			var gain float64
			for i := 0; i < b.N; i++ {
				gain, err = sim.OverlapGain(s)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(gain, "overlap_gain_%")
		})
	}
}

// BenchmarkFunctionalMachine measures the functional executor and keeps
// the equivalence property hot: Basic and CDS must produce identical
// final outputs while moving different traffic.
func BenchmarkFunctionalMachine(b *testing.B) {
	b.ReportAllocs()
	e := workloads.MPEG()
	sBasic, err := (core.Basic{}).Schedule(e.Arch, e.Part)
	if err != nil {
		b.Fatal(err)
	}
	sCDS, err := (core.CompleteDataScheduler{}).Schedule(e.Arch, e.Part)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rBasic, err := machine.Run(sBasic, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		rCDS, err := machine.Run(sCDS, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		want := rBasic.FinalOutputs(sBasic)
		got := rCDS.FinalOutputs(sCDS)
		if len(want) != len(got) {
			b.Fatal("output sets differ")
		}
		for k, v := range want {
			if !bytes.Equal(got[k], v) {
				b.Fatalf("output %s differs between schedulers", k)
			}
		}
	}
}

// BenchmarkGenerations schedules the MPEG workload on the three machine
// presets, reporting how a bigger machine (M2: 4x FB, 2x CM, 2x bus)
// shifts the CDS result.
func BenchmarkGenerations(b *testing.B) {
	b.ReportAllocs()
	part := workloads.MPEG().Part
	for _, name := range []string{"M1/4", "M1", "M2"} {
		name := name
		pa := arch.Presets()[name]
		b.Run(strings.ReplaceAll(name, "/", "_"), func(b *testing.B) {
			b.ReportAllocs()
			var cycles, rf int
			for i := 0; i < b.N; i++ {
				s, err := (core.CompleteDataScheduler{}).Schedule(pa, part)
				if err != nil {
					b.Fatal(err)
				}
				r, err := sim.Run(s)
				if err != nil {
					b.Fatal(err)
				}
				cycles, rf = r.TotalCycles, s.RF
			}
			b.ReportMetric(float64(cycles), "cycles")
			b.ReportMetric(float64(rf), "rf")
		})
	}
}

// BenchmarkCompareAllKeyedHit measures a warm-cache comparison when the
// caller hoists canonicalization: ComparisonKey runs once up front and
// every hit goes through CompareAllKeyed. BenchmarkCompareAllUnkeyedHit
// is the same hit through CompareAllCtx, which re-canonicalizes the
// partition on each call. The allocation delta between the two pins
// what the hoist saves schedd's hot compare path, where the same key
// used to be derived up to three times per request.
func BenchmarkCompareAllKeyedHit(b *testing.B) {
	b.ReportAllocs()
	e := workloads.MPEG()
	if _, err := CompareAll(e.Arch, e.Part); err != nil {
		b.Fatal(err)
	}
	key := ComparisonKey(e.Arch, e.Part)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompareAllKeyed(ctx, e.Arch, e.Part, key); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompareAllUnkeyedHit(b *testing.B) {
	b.ReportAllocs()
	e := workloads.MPEG()
	if _, err := CompareAll(e.Arch, e.Part); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompareAllCtx(ctx, e.Arch, e.Part); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompareAllUncached is BenchmarkCompareAll with result caching
// off: the cost of actually scheduling, not of hitting the cache. This
// is the number that tracks the scheduling core itself.
func BenchmarkCompareAllUncached(b *testing.B) {
	b.ReportAllocs()
	prev := SetResultCaching(false)
	defer SetResultCaching(prev)
	e := workloads.MPEG()
	for i := 0; i < b.N; i++ {
		if _, err := CompareAll(e.Arch, e.Part); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompareAllUncachedCorpus is BenchmarkCompareAllUncached over
// the corpus shape instead of MPEG alone: each op compares the next of
// the GenSpec(1, 0..63) specs, uncached.
func BenchmarkCompareAllUncachedCorpus(b *testing.B) {
	prev := SetResultCaching(false)
	defer SetResultCaching(prev)
	var exps []workloads.Experiment
	for i := 0; i < 64; i++ {
		part, p, err := workloads.GenSpec(1, i).Build()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := CompareAll(p, part); err != nil {
			continue // the facade rejects it outright; nothing to time
		}
		exps = append(exps, workloads.Experiment{Arch: p, Part: part})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := exps[i%len(exps)]
		if _, err := CompareAll(e.Arch, e.Part); err != nil {
			b.Fatal(err)
		}
	}
}
