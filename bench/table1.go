package main

// table1: the paper's own input. Every operation is one uncached
// cds.CompareAllCtx — Basic, DS and CDS on one Table 1 row — so core
// scheduling and allocation plus sim do nearly all the work. The analysis
// is memoized in set-up and verify is not called inside the timed loop.
// This is the uncached headline a faster allocator or a single timing
// walk has to move.

import (
	"bytes"
	"context"
	"fmt"

	"cds"
	"cds/internal/extract"
	"cds/internal/machine"
	"cds/internal/verify"
	"cds/internal/workloads"
)

// synVariants is how many seeded synthetic applications of each size a
// run cycles through. One per size would let a single seed's draw set
// the run's cost; many average the draws out.
const synVariants = 32

// synClusters are the synthetic sizes beside the twelve paper rows.
var synClusters = []int{16, 32}

// t1Input is one row of the table.
type t1Input struct {
	name    string
	paperRF int
	compareInput
}

// table1Inputs returns the twelve Table 1 rows followed by the seeded
// synthetic applications.
func table1Inputs(seed int64) ([]t1Input, error) {
	var in []t1Input
	for _, e := range workloads.All() {
		in = append(in, t1Input{e.Name, e.PaperRF, compareInput{e.Arch, e.Part}})
	}
	for _, clusters := range synClusters {
		cfg := workloads.DefaultSynthetic()
		cfg.Clusters = clusters
		for v := 0; v < synVariants; v++ {
			part, err := workloads.Synthetic(cfg, seed*synVariants+int64(v))
			if err != nil {
				return nil, err
			}
			in = append(in, t1Input{fmt.Sprintf("syn%d/%d", clusters, v), 0, compareInput{workloads.SyntheticArch(cfg), part}})
		}
	}
	return in, nil
}

// table1Op maps operation i to its input: each round is the twelve rows
// plus one synthetic application of each size, the variants rotating
// round by round.
func table1Op(i int) int {
	rows := len(workloads.All())
	perRound := rows + len(synClusters)
	round, pos := i/perRound, i%perRound
	if pos < rows {
		return pos
	}
	return rows + (pos-rows)*synVariants + round%synVariants
}

// table1PerSecond sizes the run's fixed work: comparisons per second of
// the run's length on the reference host.
const table1PerSecond = 340

func runTable1(r *run) error {
	ctx := context.Background()
	defer cds.SetResultCaching(cds.SetResultCaching(false))
	// Set-up generates the inputs and analyzes each one. The analysis is
	// timed uncached, so every repeat does the full work; the cache the
	// comparisons look it up in is filled afterwards.
	inputs, _, err := setup(r, func() ([]t1Input, func(), error) {
		in, err := table1Inputs(r.cfg.seed)
		if err != nil {
			return nil, nil, err
		}
		for i := range in {
			extract.AnalyzeWithOpts(in[i].part, extract.Opts{})
		}
		return in, nil, nil
	})
	if err != nil {
		return err
	}
	for i := range inputs {
		extract.AnalyzeCached(inputs[i].part, extract.Opts{})
	}

	// The first comparison of each input is its reference: every later one
	// must reproduce it.
	got := make([]outcome, len(inputs))
	seen := make([]bool, len(inputs))
	analysis := markExtract()
	r.closedLoop(r.ops(table1PerSecond), func(i int) error {
		idx := table1Op(i)
		in := inputs[idx]
		var cmp *cds.Comparison
		if r.rec == nil {
			cmp, _ = cds.CompareAllCtx(ctx, in.pa, in.part)
		} else {
			root := r.rec.start(int64(i), 0, "cds.compare")
			cmp, _ = mirrorCompare(ctx, r.rec, int64(i), root.id, in.pa, in.part)
			r.rec.end(root)
		}
		if cmp == nil {
			return fmt.Errorf("%s: no comparison", in.name)
		}
		out := outcomeOf(cmp)
		if !seen[idx] {
			got[idx], seen[idx] = out, true
		} else if out != got[idx] {
			return fmt.Errorf("%s: outcome %+v differs from the input's first %+v", in.name, out, got[idx])
		}
		return nil
	})

	if r.rec != nil {
		r.layersFromSpans()
		r.layers["extract.cache_hit_ratio"] = analysis.hitRatio()
		r.attributeAllocs(ctx, compareInputs(inputs))
	}
	r.checkTable1(ctx, inputs, got, seen)
	return nil
}

func compareInputs(in []t1Input) []compareInput {
	out := make([]compareInput, len(in))
	for i := range in {
		out[i] = in[i].compareInput
	}
	return out
}

// checkTable1 runs the table's correctness checks on every input, timed
// (seen) or not: the timed outcomes against the facade's, the golden
// rows, the paper's legible RFs, the verifier on every schedule, and
// functional equivalence of the Basic and CDS MPEG schedules on the
// machine model.
func (r *run) checkTable1(ctx context.Context, inputs []t1Input, got []outcome, seen []bool) {
	g, err := loadGolden()
	if err != nil {
		r.fail("golden: %v", err)
		return
	}
	synth := g.Synthetic[fmt.Sprint(r.cfg.seed)]
	var cycles, gain float64
	for i, in := range inputs {
		cmp, _ := cds.CompareAllCtx(ctx, in.pa, in.part)
		if cmp == nil {
			r.fail("%s: no comparison", in.name)
			continue
		}
		out := outcomeOf(cmp)
		if seen[i] && got[i] != out {
			r.fail("%s: timed outcome %+v, the facade's %+v", in.name, got[i], out)
		}
		want, ok := g.Rows[in.name]
		if ok {
			cycles += float64(out.CDS)
			gain += out.ImpCDS / float64(len(g.Rows))
		}
		if !ok {
			want, ok = synth[in.name]
		}
		if ok && out != want {
			r.fail("%s: outcome %+v, golden %+v", in.name, out, want)
		}
		if in.paperRF != 0 && out.RF != in.paperRF {
			r.fail("%s: RF %d, the paper reports %d", in.name, out.RF, in.paperRF)
		}
		for _, res := range []*cds.Result{cmp.Basic, cmp.DS, cmp.CDS} {
			if res == nil {
				continue
			}
			if err := verify.Schedule(res.Schedule); err != nil {
				r.fail("%s: %s schedule: %v", in.name, res.Schedule.Scheduler, err)
			}
		}
		if in.name == "MPEG" {
			r.checkFunctional(in.name, cmp)
		}
	}
	// The paper's own metric, over the twelve rows: pinned by the golden
	// rows, printed so a run shows it.
	r.extra("sim_cycles_cds", cycles, "cycles")
	r.extra("cds_gain_pct", gain, "%")
}

// checkFunctional executes the Basic and CDS schedules on the functional
// machine model: moving different traffic, they must compute the same
// final outputs.
func (r *run) checkFunctional(name string, cmp *cds.Comparison) {
	if cmp.Basic == nil || cmp.CDS == nil {
		r.fail("%s: missing Basic or CDS schedule", name)
		return
	}
	basic, err := machine.Run(cmp.Basic.Schedule, r.cfg.seed, nil)
	if err != nil {
		r.fail("%s: machine run of Basic: %v", name, err)
		return
	}
	complete, err := machine.Run(cmp.CDS.Schedule, r.cfg.seed, nil)
	if err != nil {
		r.fail("%s: machine run of CDS: %v", name, err)
		return
	}
	want, have := basic.FinalOutputs(cmp.Basic.Schedule), complete.FinalOutputs(cmp.CDS.Schedule)
	if len(want) != len(have) {
		r.fail("%s: Basic writes %d final outputs, CDS %d", name, len(want), len(have))
	}
	for k, v := range want {
		if !bytes.Equal(have[k], v) {
			r.fail("%s: final output %s differs between Basic and CDS", name, k)
		}
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// extractMark is a reading of the analysis cache's counters.
type extractMark struct{ hits, misses int64 }

func markExtract() extractMark {
	h, m, _ := extract.CacheStats()
	return extractMark{h, m}
}

// hitRatio is the analysis cache's hit ratio since the mark.
func (m extractMark) hitRatio() float64 {
	now := markExtract()
	hits, misses := now.hits-m.hits, now.misses-m.misses
	return ratio(hits, hits+misses)
}
