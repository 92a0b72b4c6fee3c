// Package core implements the scheduling stack the paper compares:
//
//   - Basic Scheduler (Maestre et al., DATE'99): no data reuse — every
//     cluster iteration reloads its contexts and inputs and stores all its
//     results.
//   - Data Scheduler (Sanchez-Elez et al., ISSS'01): within-cluster reuse —
//     dead data are replaced in place, minimizing the per-iteration Frame
//     Buffer footprint DS(C); the freed space holds data for RF consecutive
//     iterations so contexts are reloaded only once per RF iterations.
//   - Complete Data Scheduler (this paper, DATE'02): additionally retains
//     data and results shared among clusters of the same FB set, chosen by
//     the time factor TF, to avoid external-memory transfers altogether.
//
// All three produce a Schedule: the per-visit transfer and compute volumes
// that the timing simulator (internal/sim), the allocator replay
// (Allocate) and the code generator (internal/codegen) consume.
package core

import (
	"context"
	"encoding/json"
	"fmt"

	"cds/internal/app"
	"cds/internal/arch"
	"cds/internal/extract"
	"cds/internal/scherr"
)

// Movement is one datum's traffic within a visit, already multiplied by
// the visit's iteration count.
type Movement struct {
	Datum string
	Bytes int
}

// Visit is one execution of one cluster for a block of consecutive
// iterations (RF of them, fewer on the last block). Visits are listed in
// execution order; the simulator overlaps visit v+1's transfers with visit
// v's computation.
type Visit struct {
	// Cluster and Set identify the cluster and its FB set.
	Cluster, Set int
	// Block is the RF-block index; Iters is how many application
	// iterations this visit executes (RF, or the remainder on the last
	// block).
	Block, Iters int

	// Loads and Stores detail the external-memory data traffic of the
	// visit.
	Loads  []Movement
	Stores []Movement
	// CtxLoads details the context traffic per kernel (Datum holds the
	// kernel name, Bytes the context words actually transferred; 0-word
	// hits are omitted).
	CtxLoads []Movement
	// CtxWords counts context words loaded before the visit computes.
	CtxWords int
	// ComputeCycles is the RC-array busy time of the visit.
	ComputeCycles int
}

// LoadBytes returns the total data bytes loaded for the visit.
func (v Visit) LoadBytes() int { return sumMovements(v.Loads) }

// StoreBytes returns the total data bytes stored after the visit.
func (v Visit) StoreBytes() int { return sumMovements(v.Stores) }

func sumMovements(ms []Movement) int {
	n := 0
	for _, m := range ms {
		n += m.Bytes
	}
	return n
}

// RetainedKind distinguishes the two kinds of inter-cluster reuse the
// Complete Data Scheduler can exploit.
type RetainedKind int

const (
	// RetainedData is the paper's D_i..j: external data kept in the FB
	// across the clusters that read it (avoids N-1 loads).
	RetainedData RetainedKind = iota
	// RetainedResult is the paper's R_i,j..k: a result kept in the FB
	// from its producing cluster to its last consuming cluster (avoids
	// one store and N loads when not final).
	RetainedResult
)

func (k RetainedKind) String() string {
	if k == RetainedData {
		return "data"
	}
	return "result"
}

// Retained is one shared object the Complete Data Scheduler decided to
// keep in the Frame Buffer.
type Retained struct {
	Kind RetainedKind
	Name string
	Size int
	Set  int
	// From and To give the cluster-index span the object stays resident
	// for (producer/first consumer through last consumer).
	From, To int
	// CrossSet marks objects whose consumers sit on other FB sets than
	// the home set (only possible with the CrossSetReuse extension).
	CrossSet bool
	// TF is the paper's time factor used to rank the candidate.
	TF float64
	// AvoidedBytesPerIter is the external traffic saved per application
	// iteration by retaining the object.
	AvoidedBytesPerIter int
}

// Schedule is the complete output of one scheduler run on one partitioned
// application: enough to simulate timing, replay allocation and generate
// code.
//
// Loop fission makes a schedule periodic: once a block runs as many
// iterations as the block before it from the same Context Memory state,
// every later block of that many iterations repeats it exactly. A
// schedule therefore stores its visits as one period (see Period): the
// leading blocks, one steady block with a repeat count and the trailing
// blocks. NumVisits, Visit and Visits read the execution order it
// stands for; WithVisits makes a schedule from an explicit visit list.
type Schedule struct {
	// Scheduler names the policy that produced the schedule ("basic",
	// "ds", "cds").
	Scheduler string
	Arch      arch.Params
	P         *app.Partition
	Info      *extract.Info

	// RF is the context reuse factor: consecutive iterations executed
	// per cluster visit.
	RF int
	// Retained lists the inter-cluster objects kept in the FB (empty
	// for basic and ds).
	Retained []Retained

	// InPlaceRelease records whether the footprint model releases dead
	// data during cluster execution (false only for the basic
	// scheduler); the allocator replay needs it.
	InPlaceRelease bool

	// period is the stored form of the visits.
	period Period
}

// Period is the stored form of a schedule's visits. Visits lists, in
// execution order, the leading visits, one steady block of Len visits
// starting at Lead, and the trailing visits. The steady block runs Repeat
// times in a row, its k-th run numbering its visits' blocks Block+k; the
// trailing visits carry their own block numbers. Len 0 means Visits is
// the whole execution order. The lists are shared: treat them as
// read-only.
type Period struct {
	Visits            []Visit
	Lead, Len, Repeat int
}

// WithVisits returns a copy of s whose visits are the explicit list vs,
// in execution order. It is how the stream and tenant planners make their
// schedules, and how a test edits an expansion (Visits) into a schedule.
func (s Schedule) WithVisits(vs []Visit) *Schedule {
	s.period = Period{Visits: vs}
	return &s
}

// Period returns the schedule's stored form.
func (s *Schedule) Period() Period { return s.period }

// NumVisits returns the number of visits in execution order.
func (s *Schedule) NumVisits() int {
	p := &s.period
	return len(p.Visits) + (p.Repeat-1)*p.Len
}

// At maps visit i of the execution order to its index in Visits and the
// number of steady runs before it within the steady blocks: the visit is
// Visits[j] with its block number advanced by that count.
func (p *Period) At(i int) (int, int) { return periodAt(i, p.Lead, p.Len, p.Repeat) }

// periodAt maps item i of an execution order to its stored index and its
// steady run, for a stored list of lead leading items, one steady run of
// n items repeated repeat times, and the trailing items.
func periodAt(i, lead, n, repeat int) (int, int) {
	if i < lead {
		return i, 0
	}
	if j := i - lead; j < repeat*n {
		return lead + j%n, j / n
	}
	return i - (repeat-1)*n, 0
}

// Visit returns visit i of the execution order, 0 <= i < NumVisits().
func (s *Schedule) Visit(i int) Visit {
	j, k := s.period.At(i)
	v := s.period.Visits[j]
	v.Block += k
	return v
}

// Visits returns a fresh expansion of the execution order. The visits
// share the period's movement lists.
func (s *Schedule) Visits() []Visit {
	p := &s.period
	out := make([]Visit, 0, s.NumVisits())
	out = append(out, p.Visits[:p.Lead]...)
	steady := p.Visits[p.Lead : p.Lead+p.Len]
	for k := 0; k < p.Repeat; k++ {
		for _, v := range steady {
			v.Block += k
			out = append(out, v)
		}
	}
	return append(out, p.Visits[p.Lead+p.Len:]...)
}

// MarshalJSON encodes the schedule with its expanded visits, in the field
// order of the struct.
func (s Schedule) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Scheduler      string
		Arch           arch.Params
		P              *app.Partition
		Info           *extract.Info
		RF             int
		Retained       []Retained
		Visits         []Visit
		InPlaceRelease bool
	}{s.Scheduler, s.Arch, s.P, s.Info, s.RF, s.Retained, s.Visits(), s.InPlaceRelease})
}

// Sum returns f summed over every visit of the execution order: the
// steady block counts Repeat times.
func (s *Schedule) Sum(f func(*Visit) int) int {
	p := &s.period
	n := 0
	for i := range p.Visits {
		n += f(&p.Visits[i])
	}
	steady := 0
	for i := p.Lead; i < p.Lead+p.Len; i++ {
		steady += f(&p.Visits[i])
	}
	return n + (p.Repeat-1)*steady
}

// TotalLoadBytes returns the external-memory data bytes loaded across the
// whole schedule.
func (s *Schedule) TotalLoadBytes() int {
	return s.Sum(func(v *Visit) int { return v.LoadBytes() })
}

// TotalStoreBytes returns the external-memory data bytes stored across
// the whole schedule.
func (s *Schedule) TotalStoreBytes() int {
	return s.Sum(func(v *Visit) int { return v.StoreBytes() })
}

// TotalCtxWords returns the context words loaded across the whole
// schedule.
func (s *Schedule) TotalCtxWords() int {
	return s.Sum(func(v *Visit) int { return v.CtxWords })
}

// TotalComputeCycles returns the RC-array busy cycles across the whole
// schedule.
func (s *Schedule) TotalComputeCycles() int {
	return s.Sum(func(v *Visit) int { return v.ComputeCycles })
}

// AvoidedBytesPerIter sums the per-iteration external traffic saved by
// retention (the paper's DT column).
func (s *Schedule) AvoidedBytesPerIter() int {
	n := 0
	for _, r := range s.Retained {
		n += r.AvoidedBytesPerIter
	}
	return n
}

// InfeasibleError reports that a scheduler cannot fit a cluster into the
// Frame Buffer set (e.g. the Basic Scheduler on MPEG with a 1K FB).
type InfeasibleError struct {
	Scheduler string
	Cluster   int
	Need      int
	Have      int
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("%s: cluster %d needs %d bytes of frame buffer, set holds %d",
		e.Scheduler, e.Cluster, e.Need, e.Have)
}

// Is makes every InfeasibleError match the taxonomy class
// scherr.ErrInfeasible under errors.Is, so callers can branch on the
// kind of failure without naming this concrete type.
func (e *InfeasibleError) Is(target error) bool { return target == scherr.ErrInfeasible }

// Scheduler is the common interface of the three policies.
type Scheduler interface {
	// Name returns the policy's short name.
	Name() string
	// Schedule builds the transfer/compute schedule for the partition
	// on the given architecture. It is ScheduleCtx with a background
	// context.
	Schedule(p arch.Params, part *app.Partition) (*Schedule, error)
	// ScheduleCtx is Schedule with cooperative cancellation: once ctx
	// is done the scheduler returns an error matching
	// scherr.ErrCanceled instead of finishing its work.
	ScheduleCtx(ctx context.Context, p arch.Params, part *app.Partition) (*Schedule, error)
}
