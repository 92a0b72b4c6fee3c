package sim

import (
	"fmt"
	"io"

	"cds/internal/core"
)

// RunSerial simulates the schedule WITHOUT the double-buffered overlap: a
// machine with a single Frame Buffer set (or a naive runtime) must finish
// each visit's loads before computing and drain its stores afterwards,
// with nothing concurrent. It is the static walk with every visit folded
// onto one FB set, so StallCycles counts all the transfer time the RC
// array waits through. The gap between RunSerial and Run quantifies what
// M1's two FB sets buy; the overlap ablation benchmark reports it.
func RunSerial(s *core.Schedule) (*Result, error) {
	if err := checkSchedule(s); err != nil {
		return nil, err
	}
	l := newLane(s)
	l.oneSet = true
	return walkOne(l, static, nil), nil
}

// OverlapGain returns the percentage of execution time the double-buffered
// overlap saves for this schedule.
func OverlapGain(s *core.Schedule) (float64, error) {
	serial, err := RunSerial(s)
	if err != nil {
		return 0, err
	}
	overlapped, err := Run(s)
	if err != nil {
		return 0, err
	}
	return Improvement(serial, overlapped), nil
}

// WriteTimeline renders a per-visit Gantt-style view of the overlapped
// execution: when each visit computed and how long its transfers took.
func WriteTimeline(w io.Writer, s *core.Schedule, r *Result) {
	if len(r.VisitStart) != s.NumVisits() {
		fmt.Fprintln(w, "timeline: result does not match schedule")
		return
	}
	total := r.TotalCycles
	if total == 0 {
		total = 1
	}
	const cols = 60
	fmt.Fprintf(w, "total %d cycles; one column = %d cycles\n", r.TotalCycles, (total+cols-1)/cols)
	for vi := range len(r.VisitStart) {
		v := s.Visit(vi)
		start := r.VisitStart[vi] * cols / total
		end := r.VisitEnd[vi] * cols / total
		if end <= start {
			end = start + 1
		}
		bar := make([]byte, cols)
		for i := range bar {
			switch {
			case i >= start && i < end:
				bar[i] = '#'
			default:
				bar[i] = '.'
			}
		}
		fmt.Fprintf(w, "c%d b%-3d %s  [%d..%d)\n", v.Cluster, v.Block, bar, r.VisitStart[vi], r.VisitEnd[vi])
	}
	fmt.Fprintf(w, "RC busy %.0f%%, DMA busy %.0f%%, stalls %d cycles\n",
		100*float64(r.ComputeCycles)/float64(total),
		100*float64(r.DMABusy())/float64(total),
		r.StallCycles)
}
