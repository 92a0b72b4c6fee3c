package verify

import (
	"errors"
	"strings"
	"testing"

	"cds/internal/core"
	"cds/internal/scherr"
	"cds/internal/sim"
	"cds/internal/trace"
	"cds/internal/workloads"
)

// Every streamed execution of every seed workload — serialized and
// prefetching — must pass the prefetch invariant family.
func TestStreamVerifiesClean(t *testing.T) {
	for _, e := range workloads.All() {
		for _, sched := range allSchedulers {
			s, err := sched.Schedule(e.Arch, e.Part)
			if errors.Is(err, scherr.ErrInfeasible) {
				continue
			}
			if err != nil {
				t.Fatalf("%s/%s: schedule: %v", e.Name, sched.Name(), err)
			}
			for _, prefetch := range []bool{false, true} {
				if err := Stream(s, sim.StreamOpts{Prefetch: prefetch}); err != nil {
					t.Errorf("%s/%s prefetch=%v: %v", e.Name, sched.Name(), prefetch, err)
				}
			}
		}
	}
}

// streamFixture returns a verified streamed execution of the MPEG
// schedule ready for tampering.
func streamFixture(t *testing.T, prefetch bool) (*core.Schedule, sim.StreamOpts, *sim.Result, *trace.Timeline) {
	t.Helper()
	e := workloads.MPEG()
	s, err := (core.CompleteDataScheduler{}).Schedule(e.Arch, e.Part)
	if err != nil {
		t.Fatal(err)
	}
	o := sim.StreamOpts{Prefetch: prefetch}
	res, tl, err := sim.TraceStream(s, "", o)
	if err != nil {
		t.Fatal(err)
	}
	if err := StreamTimeline(s, o, res, tl); err != nil {
		t.Fatalf("fixture not clean: %v", err)
	}
	return s, o, res, tl
}

func wantPrefetchViolation(t *testing.T, err error, frag string) {
	t.Helper()
	if err == nil {
		t.Fatalf("tamper not detected (want %q)", frag)
	}
	if !errors.Is(err, scherr.ErrVerify) {
		t.Fatalf("violation %v does not match ErrVerify", err)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("violation %v does not mention %q", err, frag)
	}
	var ve *Error
	if !errors.As(err, &ve) || ve.Invariant != "prefetch" {
		t.Fatalf("violation %v not in the prefetch family", err)
	}
}

func TestStreamDetectsLateResidency(t *testing.T) {
	s, o, res, tl := streamFixture(t, true)
	// Claim a visit's compute started before its context burst finished.
	for _, sp := range tl.Spans {
		if sp.Resource == trace.DMA && (sp.Kind == trace.KindContext || sp.Kind == trace.KindPrefetch) {
			res.VisitStart[sp.Visit] = sp.End - 1
			break
		}
	}
	wantPrefetchViolation(t, StreamTimeline(s, o, res, tl), "not resident before compute start")
}

func TestStreamDetectsEarlyIssue(t *testing.T) {
	s, _, res, tl := streamFixture(t, false)
	o := sim.StreamOpts{Visits: make([]sim.StreamVisit, s.NumVisits())}
	// Claim every visit arrived only at cycle 10^9: everything issued
	// too early.
	for i := range o.Visits {
		o.Visits[i].Ready = 1_000_000_000
	}
	wantPrefetchViolation(t, StreamTimeline(s, o, res, tl), "before stream arrival")
}

func TestStreamDetectsForbiddenOverlap(t *testing.T) {
	s, _, res, tl := streamFixture(t, true)
	// The prefetching timeline hoists transfers into compute windows;
	// auditing it as a serialized run must fail — either on a prefetch
	// span existing at all, or on the overlap itself.
	err := StreamTimeline(s, sim.StreamOpts{}, res, tl)
	if err == nil {
		t.Fatal("prefetching timeline accepted as a serialized run")
	}
	if !errors.Is(err, scherr.ErrVerify) {
		t.Fatalf("violation %v does not match ErrVerify", err)
	}
}

func TestStreamDetectsSameSetPrefetch(t *testing.T) {
	s, o, res, tl := streamFixture(t, true)
	// Relabel a prefetched visit's FB set to collide with its
	// predecessor's.
	tampered := false
	for _, sp := range tl.Spans {
		if sp.Kind == trace.KindPrefetch {
			vs := s.Visits()
			vs[sp.Visit].Set = vs[sp.Visit-1].Set
			s = s.WithVisits(vs)
			tampered = true
			break
		}
	}
	if !tampered {
		t.Skip("no prefetch span in the MPEG stream (model changed?)")
	}
	wantPrefetchViolation(t, StreamTimeline(s, o, res, tl), "while visit")
}

func TestStreamDetectsCMOverflow(t *testing.T) {
	s, _, res, tl := streamFixture(t, true)
	// Declare a working set that leaves no room for any hoisted words.
	o := sim.StreamOpts{Prefetch: true, Visits: make([]sim.StreamVisit, s.NumVisits())}
	for i := range o.Visits {
		o.Visits[i].GroupWords = s.Arch.CMWords
	}
	wantPrefetchViolation(t, StreamTimeline(s, o, res, tl), "would evict")
}

func TestStreamDetectsBusyMismatch(t *testing.T) {
	s, o, res, tl := streamFixture(t, true)
	res.PrefetchCycles++
	wantPrefetchViolation(t, StreamTimeline(s, o, res, tl), "prefetch spans total")
}

func TestStreamRejectsShapeMismatches(t *testing.T) {
	s, o, res, tl := streamFixture(t, true)
	if err := StreamTimeline(nil, o, res, tl); err == nil {
		t.Error("nil schedule accepted")
	}
	if err := Stream(nil, o); err == nil {
		t.Error("Stream accepted nil schedule")
	}
	bad := sim.StreamOpts{Visits: []sim.StreamVisit{{}}}
	if err := StreamTimeline(s, bad, res, tl); err == nil {
		t.Error("mismatched opts length accepted")
	}
	short := *res
	short.VisitStart = res.VisitStart[:1]
	if err := StreamTimeline(s, o, &short, tl); err == nil {
		t.Error("truncated result accepted")
	}
}
