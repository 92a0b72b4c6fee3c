package stream

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"cds/internal/app"
	"cds/internal/arch"
	"cds/internal/core"
	"cds/internal/rescache"
	"cds/internal/sim"
	"cds/internal/trace"
)

// segmentKey fingerprints everything a segment's schedule is a pure
// function of: the machine, the iteration count and the segment's
// content (data, kernels, cluster decomposition). The arrival time is
// deliberately excluded — when a burst arrives changes the executor's
// Ready times, never the schedule's content. The canonical encoding is
// rescache's (AppendNum, AppendStr, AppendMachine), and the key shares
// rescache's Key type so serving layers can expose it alongside
// comparison keys.
func segmentKey(pa arch.Params, iterations int, seg *Segment) rescache.Key {
	var scratch [2048]byte // a typical segment's encoding fits: no allocation
	b := rescache.AppendStr(scratch[:0], "cds/stream/segment/v1")
	b = rescache.AppendMachine(b, pa)
	b = rescache.AppendNum(b, iterations)
	b = rescache.AppendNum(b, len(seg.Data))
	for _, d := range seg.Data {
		b = rescache.AppendStr(b, d.Name)
		b = rescache.AppendNum(b, d.Size)
		b = rescache.AppendFlag(b, d.Final)
		b = rescache.AppendFlag(b, d.Streamed)
	}
	b = rescache.AppendNum(b, len(seg.Kernels))
	for _, k := range seg.Kernels {
		b = rescache.AppendStr(b, k.Name)
		b = rescache.AppendNum(b, k.ContextWords)
		b = rescache.AppendNum(b, k.ComputeCycles)
		b = rescache.AppendStr(b, k.ContextGroup)
		b = rescache.AppendNum(b, len(k.Inputs))
		for _, in := range k.Inputs {
			b = rescache.AppendStr(b, in)
		}
		b = rescache.AppendNum(b, len(k.Outputs))
		for _, out := range k.Outputs {
			b = rescache.AppendStr(b, out)
		}
	}
	b = rescache.AppendNum(b, len(seg.Clusters))
	for _, c := range seg.Clusters {
		b = rescache.AppendNum(b, c)
	}
	return sha256.Sum256(b)
}

// segEntry is one memoized segment plan: the built sub-partition, its
// CDS schedule (both immutable once planned) and the per-cluster
// context working sets the prefetch residency check needs.
type segEntry struct {
	part       *app.Partition
	sched      *core.Schedule
	groupWords []int // indexed by the segment-local cluster index
}

// DefaultMemoSegments bounds a planner's memo when no size is given:
// enough for many evolving streams without pinning every segment a
// long-lived daemon ever saw.
const DefaultMemoSegments = 256

// Planner is the incremental stream scheduler. Each segment is planned
// with the Complete Data Scheduler as a self-contained sub-application
// and memoized under its content fingerprint; replanning a stream whose
// tail changed reuses every unchanged segment's schedule and re-runs
// CDS only for the divergent segments. Safe for concurrent use.
//
// The memo is NOT shared process-wide: each Planner owns an unnamed
// rescache.Cache (collected with the Planner, never registered), so a
// fresh Planner is a from-scratch planner (the golden byte-identity
// test relies on that).
type Planner struct {
	memo *rescache.Cache[rescache.Key, *segEntry]
}

// NewPlanner returns a planner with a bounded segment memo (memoSize
// <= 0 selects DefaultMemoSegments).
func NewPlanner(memoSize int) *Planner {
	if memoSize <= 0 {
		memoSize = DefaultMemoSegments
	}
	return &Planner{memo: rescache.New[rescache.Key, *segEntry]("", memoSize)}
}

// MemoLen reports how many segment schedules are resident.
func (pl *Planner) MemoLen() int { return pl.memo.Len() }

// SegmentPlan is one segment's slice of a Plan.
type SegmentPlan struct {
	// Name and At echo the segment's label and arrival cycle.
	Name string
	At   int
	// Fingerprint is the content key the segment's schedule is memoized
	// under (see segmentKey).
	Fingerprint rescache.Key
	// Reused reports whether this Plan call took the schedule from the
	// memo (true) or ran CDS for it (false).
	Reused bool
	// RF is the segment-local context reuse factor CDS settled on.
	RF int
	// Part and Schedule are the segment's sub-application and its CDS
	// schedule, with segment-local cluster indices and FB sets. Both are
	// shared with the memo and must not be mutated.
	Part     *app.Partition
	Schedule *core.Schedule
}

// Plan is the stitched output of planning one arrival log: the global
// visit sequence (segment-local schedules concatenated in arrival
// order, cluster indices offset and FB sets rotated so consecutive
// segments keep alternating sets) plus the per-visit streaming inputs
// the simulator consumes.
type Plan struct {
	Name       string
	Arch       arch.Params
	Iterations int
	Segments   []SegmentPlan
	// Schedule is the stitched visit sequence (Scheduler "stream"). Its
	// P/Info fields are nil — per-segment invariants are checked against
	// the segments' own schedules, stream-level invariants against the
	// streamed timeline (verify.Stream).
	Schedule *core.Schedule
	// StreamVisits parallels Schedule.Visits: each visit's Ready cycle
	// (its segment's arrival) and context working set.
	StreamVisits []sim.StreamVisit
	// Reused and Replanned count this call's memo hits and CDS runs.
	Reused, Replanned int
}

// simEval wires the event-driven simulator into the CDS RF guard, the
// same evaluator the facade uses (core cannot import internal/sim).
func simEval(s *core.Schedule) (int, error) {
	r, err := sim.Run(s)
	if err != nil {
		return 0, err
	}
	return r.TotalCycles, nil
}

// groupWordsOf computes each cluster's context working set: the words
// of its kernels' distinct context groups (a group shared by several
// kernels counts once, at its largest declared volume).
func groupWordsOf(part *app.Partition) []int {
	out := make([]int, len(part.Clusters))
	for ci, c := range part.Clusters {
		words := map[string]int{}
		for _, ki := range c.Kernels {
			k := part.App.Kernels[ki]
			g := k.CtxGroup()
			if k.ContextWords > words[g] {
				words[g] = k.ContextWords
			}
		}
		for _, w := range words {
			out[ci] += w
		}
	}
	return out
}

// Plan schedules the arrival log. Unchanged segments (by content
// fingerprint) reuse their memoized schedules; divergent segments run
// CDS. The output is a pure function of the log alone — byte-identical
// whether the memo was cold or warm (the golden test pins that).
func (pl *Planner) Plan(ctx context.Context, lg *Log) (*Plan, error) {
	// Header-only validation: segment content is checked on the miss
	// path (Build validates the sub-spec), and a memo hit proves the
	// identical content already built cleanly — see validateHeader.
	if err := lg.validateHeader(); err != nil {
		return nil, err
	}
	pa := lg.Params()
	plan := &Plan{Name: lg.Name, Arch: pa, Iterations: lg.Iterations}
	// Pass 1: fingerprint every segment and resolve its schedule (memo
	// hit or CDS run: Replanned counts the segments whose compute this
	// call ran). Stitching is deferred so the visit slices can be
	// sized exactly — on the hot replan path (one divergent segment in
	// a long log) repeated append growth would otherwise dominate.
	ents := make([]*segEntry, len(lg.Segments))
	keys := make([]rescache.Key, len(lg.Segments))
	hits := make([]bool, len(lg.Segments))
	total := 0
	for i := range lg.Segments {
		// Do reports a dead ctx before consulting the memo.
		key := segmentKey(pa, lg.Iterations, &lg.Segments[i])
		ran := false
		ent, err := pl.memo.Do(ctx, key, func() (*segEntry, error) {
			ran = true
			part, spa, err := lg.segmentSpec(i).Build()
			if err != nil {
				return nil, fmt.Errorf("stream: segment %q: %w", lg.SegmentName(i), err)
			}
			sched, err := (core.CompleteDataScheduler{Eval: simEval}).ScheduleCtx(ctx, spa, part)
			if err != nil {
				return nil, fmt.Errorf("stream: segment %q: %w", lg.SegmentName(i), err)
			}
			return &segEntry{part: part, sched: sched, groupWords: groupWordsOf(part)}, nil
		})
		if err != nil {
			return nil, err
		}
		if ran {
			plan.Replanned++
		} else {
			plan.Reused++
		}
		ents[i], keys[i], hits[i] = ent, key, !ran
		total += ent.sched.NumVisits()
	}
	// Pass 2 — stitch: offset each segment's cluster indices to their
	// global positions and rotate its FB sets so consecutive segments
	// keep alternating sets (a uniform rotation preserves every
	// same-set relation CDS planned under, so the schedule content is
	// untouched — only the labels move).
	visits := make([]core.Visit, 0, total)
	plan.StreamVisits = make([]sim.StreamVisit, 0, total)
	plan.Segments = make([]SegmentPlan, 0, len(lg.Segments))
	clusterOff := 0
	for i := range lg.Segments {
		seg, ent := &lg.Segments[i], ents[i]
		setOff := clusterOff % pa.FBSets
		for vi := range ent.sched.NumVisits() {
			v := ent.sched.Visit(vi)
			gv := v
			gv.Cluster = v.Cluster + clusterOff
			gv.Set = (v.Set + setOff) % pa.FBSets
			plan.StreamVisits = append(plan.StreamVisits, sim.StreamVisit{
				Ready:      seg.At,
				GroupWords: ent.groupWords[v.Cluster],
			})
			visits = append(visits, gv)
		}
		plan.Segments = append(plan.Segments, SegmentPlan{
			Name:        lg.SegmentName(i),
			At:          seg.At,
			Fingerprint: keys[i],
			Reused:      hits[i],
			RF:          ent.sched.RF,
			Part:        ent.part,
			Schedule:    ent.sched,
		})
		clusterOff += len(seg.Clusters)
	}
	plan.Schedule = core.Schedule{
		Scheduler:      "stream",
		Arch:           pa,
		InPlaceRelease: true,
	}.WithVisits(visits)
	return plan, nil
}

// Run simulates the plan under the streaming model, with or without
// context prefetch.
func (p *Plan) Run(prefetch bool) (*sim.Result, error) {
	return sim.RunStream(p.Schedule, sim.StreamOpts{Visits: p.StreamVisits, Prefetch: prefetch})
}

// Trace simulates the plan while recording the timeline.
func (p *Plan) Trace(prefetch bool, label string) (*sim.Result, *trace.Timeline, error) {
	return sim.TraceStream(p.Schedule, label, sim.StreamOpts{Visits: p.StreamVisits, Prefetch: prefetch})
}

// Opts returns the streaming simulator options for the plan.
func (p *Plan) Opts(prefetch bool) sim.StreamOpts {
	return sim.StreamOpts{Visits: p.StreamVisits, Prefetch: prefetch}
}

// MarshalCanonical renders the plan's content — everything that defines
// the schedule, nothing that records how it was obtained (memo hits are
// excluded) — as deterministic JSON. Delta-replanned and from-scratch
// plans of the same log must produce identical bytes; the golden test
// pins that.
func (p *Plan) MarshalCanonical() ([]byte, error) {
	type segDoc struct {
		Name        string `json:"name"`
		At          int    `json:"at"`
		Fingerprint string `json:"fingerprint"`
		RF          int    `json:"rf"`
	}
	doc := struct {
		Name       string            `json:"name"`
		Arch       arch.Params       `json:"arch"`
		Iterations int               `json:"iterations"`
		Segments   []segDoc          `json:"segments"`
		Visits     []core.Visit      `json:"visits"`
		Stream     []sim.StreamVisit `json:"stream"`
	}{
		Name:       p.Name,
		Arch:       p.Arch,
		Iterations: p.Iterations,
		Visits:     p.Schedule.Visits(),
		Stream:     p.StreamVisits,
	}
	for _, s := range p.Segments {
		doc.Segments = append(doc.Segments, segDoc{
			Name: s.Name, At: s.At,
			Fingerprint: fmt.Sprintf("%x", s.Fingerprint), RF: s.RF,
		})
	}
	return json.Marshal(doc)
}
