package core

import (
	"context"
	"fmt"

	"cds/internal/app"
	"cds/internal/arch"
)

// GuardCandidate is one reuse factor the RF guard weighs: the DMA demand
// its summary walk computes, and the schedule its build makes.
type GuardCandidate struct {
	RF, Demand int
	Schedule   *Schedule
}

// GuardCandidates returns the candidates of a DataScheduler or a
// CompleteDataScheduler at every feasible reuse factor, RF-max first,
// each with its demand and its full build, so tests can score every one.
func GuardCandidates(sched Scheduler, pa arch.Params, part *app.Partition) ([]GuardCandidate, error) {
	var opts scheduleOpts
	switch x := sched.(type) {
	case DataScheduler:
		opts = x.opts()
	case CompleteDataScheduler:
		opts = x.opts()
	default:
		return nil, fmt.Errorf("no RF guard in %T", sched)
	}
	p, rf, err := plan(context.Background(), sched.Name(), pa, part, opts)
	if err != nil {
		return nil, err
	}
	var out []GuardCandidate
	for r := rf; r >= 1; r-- {
		if r < rf && !p.feasible(r) {
			continue
		}
		c := p.candidate(r)
		demand, err := p.demand(&c)
		if err != nil {
			return nil, err
		}
		s, err := p.build(&c)
		if err != nil {
			return nil, err
		}
		out = append(out, GuardCandidate{RF: r, Demand: demand, Schedule: s})
	}
	return out, nil
}

// ReplayedBlocks returns the number of blocks r's replay walked.
func ReplayedBlocks(r *AllocationReport) int { return int(r.replayed) }

// WithPeriod returns a copy of s whose visits are stored as per, for
// tests that build a period by hand.
func WithPeriod(s *Schedule, per Period) *Schedule {
	c := *s
	c.period = per
	return &c
}
