// Extensions example: the paper's section 7 future work, implemented.
//
//  1. Intra-kernel data management: tiling a kernel's private data into
//     streamed slices shrinks the footprint and raises the reuse factor.
//  2. Cross-FB-set reuse: retention across clusters on different sets.
//  3. A joint RF/retention choice (the RF guard scored by DMA cost) as an
//     alternative to the paper's take-the-max RF policy.
//
// Every variant is also executed FUNCTIONALLY to show the optimizations
// preserve the computed outputs byte for byte.
package main

import (
	"bytes"
	"fmt"
	"log"
	"sort"

	"cds"
	"cds/internal/app"
	"cds/internal/core"
	"cds/internal/machine"
	"cds/internal/sim"
)

func main() {
	log.SetFlags(0)

	// A feature-extraction pipeline with one dominant input buffer.
	b := cds.NewApp("sensor", 12).
		Datum("frameBuf", 600). // large private input of the extractor
		Datum("lut", 96).       // lookup table shared across sets
		Datum("feat", 64).
		Datum("scores", 64).
		Datum("dets", 48)
	b.Kernel("extract", 160, 220).In("frameBuf", "lut").Out("feat")
	b.Kernel("score", 128, 140).In("feat", "lut").Out("scores")
	b.Kernel("detect", 96, 100).In("scores").Out("dets")
	a, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	part, err := cds.Partition(a, 2, 1, 1, 1)
	if err != nil {
		log.Fatal(err)
	}

	pa := cds.M1()
	pa.FBSetBytes = 1 * cds.KiB
	pa.CMWords = 320

	fmt.Println("variant                          RF  retained  loads(B)    cycles")
	base := report("paper CDS", pa, part, core.CompleteDataScheduler{})

	// 1. Tiling: split the extractor's frame buffer into 4 streamed
	// slices sharing one context group.
	tiled, err := app.TilePartition(part, "extract", 4)
	if err != nil {
		log.Fatal(err)
	}
	report("  + intra-kernel tiling (x4)", pa, tiled, core.CompleteDataScheduler{})

	// 2. Cross-set reuse: the lookup table is used by clusters on both
	// sets; paper-mode retention cannot keep it.
	report("  + cross-set reuse", pa, tiled, core.CompleteDataScheduler{CrossSetReuse: true})

	// 3. Joint RF/retention choice by DMA cost.
	report("  + RF by DMA cost", pa, tiled, core.CompleteDataScheduler{CrossSetReuse: true, Eval: core.DMACost})

	// Functional equivalence: on the tiled application, the fully
	// extended scheduler computes the same outputs as the plain one.
	// (The tiling transform itself changes the kernel set, so the
	// comparison is between SCHEDULERS on the same application.)
	fmt.Println()
	sBase, err := (core.CompleteDataScheduler{}).Schedule(pa, tiled)
	if err != nil {
		log.Fatal(err)
	}
	sBest, err := (core.CompleteDataScheduler{CrossSetReuse: true, Eval: core.DMACost}).Schedule(pa, tiled)
	if err != nil {
		log.Fatal(err)
	}
	rBase, err := machine.Run(sBase, 42, nil)
	if err != nil {
		log.Fatal(err)
	}
	rBest, err := machine.Run(sBest, 42, nil)
	if err != nil {
		log.Fatal(err)
	}
	outBase := rBase.FinalOutputs(sBase)
	outBest := rBest.FinalOutputs(sBest)
	keys := make([]string, 0, len(outBase))
	for k := range outBase {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !bytes.Equal(outBase[k], outBest[k]) {
			log.Fatalf("output %s differs between variants!", k)
		}
	}
	fmt.Printf("functional check: %d final outputs byte-identical across scheduler variants\n", len(keys))
	_ = base
}

func report(label string, pa cds.Arch, part *cds.Part, sched core.Scheduler) *sim.Result {
	s, err := sched.Schedule(pa, part)
	if err != nil {
		log.Fatalf("%s: %v", label, err)
	}
	r, err := sim.Run(s)
	if err != nil {
		log.Fatalf("%s: %v", label, err)
	}
	fmt.Printf("%-32s %2d %9d %9d %9d\n", label, s.RF, len(s.Retained), r.LoadBytes, r.TotalCycles)
	return r
}
