package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ChromeEvent is one Chrome trace-event ("Trace Event Format", the JSON
// consumed by chrome://tracing and Perfetto). Durations use the "X"
// (complete event) phase, instants the "i" phase; timestamps are in
// microseconds, so one RC cycle maps to one microsecond for viewing
// convenience.
type ChromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Phase string            `json:"ph"`
	TS    int               `json:"ts"`
	Dur   int               `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// chromeDoc is the top-level JSON object.
type chromeDoc struct {
	TraceEvents []ChromeEvent `json:"traceEvents"`
}

// Track IDs: the RC array and the DMA channel of one timeline.
const (
	tidRCArray = 1
	tidDMA     = 2
)

// WriteChrome exports one or more timelines as a single Chrome trace.
// Each timeline becomes one process (pid 1, 2, ...) named by its label,
// with the RC array and the DMA channel as its two threads — loading a
// Basic/DS/CDS triple gives the paper's Figure 6 overlap comparison as
// three aligned process groups.
func WriteChrome(w io.Writer, tls ...*Timeline) error {
	var events []ChromeEvent
	for i, tl := range tls {
		if tl == nil {
			continue
		}
		pid := i + 1
		events = append(events,
			ChromeEvent{Name: "process_name", Phase: "M", PID: pid, TID: 0,
				Args: map[string]string{"name": tl.Label}},
			ChromeEvent{Name: "thread_name", Phase: "M", PID: pid, TID: tidRCArray,
				Args: map[string]string{"name": "RC array"}},
			ChromeEvent{Name: "thread_name", Phase: "M", PID: pid, TID: tidDMA,
				Args: map[string]string{"name": "DMA channel"}},
		)
		for _, s := range tl.ByResource(RCArray) {
			events = append(events, spanEvent(s, pid, tidRCArray))
		}
		for _, s := range tl.ByResource(DMA) {
			events = append(events, spanEvent(s, pid, tidDMA))
		}
		for _, m := range tl.Marks {
			events = append(events, ChromeEvent{
				Name: m.Name, Cat: m.Kind.String(), Phase: "i",
				TS: m.Cycle, PID: pid, TID: tidRCArray, Scope: "t",
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeDoc{TraceEvents: events})
}

func spanEvent(s Span, pid, tid int) ChromeEvent {
	ev := ChromeEvent{
		Name: chromeName(s), Cat: s.Kind.String(), Phase: "X",
		TS: s.Start, Dur: s.Dur(), PID: pid, TID: tid,
		Args: map[string]string{
			"cluster": fmt.Sprint(s.Cluster),
			"block":   fmt.Sprint(s.Block),
			"set":     fmt.Sprint(s.Set),
		},
	}
	if s.Bytes > 0 {
		ev.Args["bytes"] = fmt.Sprint(s.Bytes)
	}
	if s.Words > 0 {
		ev.Args["words"] = fmt.Sprint(s.Words)
	}
	return ev
}

// chromeName renders a span's display name: the cluster and block for
// compute and context bursts, plus the datum for loads and stores.
func chromeName(s Span) string {
	switch s.Kind {
	case KindCompute:
		return fmt.Sprintf("cluster %d (block %d)", s.Cluster, s.Block)
	case KindContext:
		return fmt.Sprintf("ctx c%d b%d", s.Cluster, s.Block)
	case KindPrefetch:
		return fmt.Sprintf("prefetch ctx c%d b%d", s.Cluster, s.Block)
	case KindLoad:
		return fmt.Sprintf("load %s c%d b%d", s.Name, s.Cluster, s.Block)
	case KindStore:
		return fmt.Sprintf("store %s c%d b%d", s.Name, s.Cluster, s.Block)
	}
	return s.Name
}

// ValidateChrome parses a Chrome trace back and checks it is
// well-formed: valid JSON with a traceEvents array, every complete
// ("X") event with a non-negative timestamp and duration, and per
// (pid, tid) track the complete events in nondecreasing-timestamp,
// non-overlapping order. CI runs this over the exported MPEG trace so a
// malformed exporter cannot ship. It returns the number of complete
// events validated.
func ValidateChrome(r io.Reader) (int, error) {
	var doc chromeDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return 0, fmt.Errorf("trace: chrome JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return 0, fmt.Errorf("trace: chrome JSON: no traceEvents")
	}
	type track struct{ pid, tid int }
	byTrack := map[track][]ChromeEvent{}
	n := 0
	for i, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "X":
			if ev.TS < 0 || ev.Dur < 0 {
				return 0, fmt.Errorf("trace: event %d (%q): negative interval ts=%d dur=%d", i, ev.Name, ev.TS, ev.Dur)
			}
			byTrack[track{ev.PID, ev.TID}] = append(byTrack[track{ev.PID, ev.TID}], ev)
			n++
		case "M", "i", "I":
			// metadata and instants carry no interval
		default:
			return 0, fmt.Errorf("trace: event %d (%q): unexpected phase %q", i, ev.Name, ev.Phase)
		}
	}
	tracks := make([]track, 0, len(byTrack))
	for t := range byTrack {
		tracks = append(tracks, t)
	}
	sort.Slice(tracks, func(i, j int) bool {
		return tracks[i].pid < tracks[j].pid ||
			(tracks[i].pid == tracks[j].pid && tracks[i].tid < tracks[j].tid)
	})
	for _, t := range tracks {
		evs := byTrack[t]
		for i := 1; i < len(evs); i++ {
			if evs[i].TS < evs[i-1].TS {
				return 0, fmt.Errorf("trace: track pid=%d tid=%d: timestamps not monotone: %q@%d after %q@%d",
					t.pid, t.tid, evs[i].Name, evs[i].TS, evs[i-1].Name, evs[i-1].TS)
			}
			if evs[i].TS < evs[i-1].TS+evs[i-1].Dur {
				return 0, fmt.Errorf("trace: track pid=%d tid=%d: %q@%d overlaps %q [%d,%d)",
					t.pid, t.tid, evs[i].Name, evs[i].TS, evs[i-1].Name, evs[i-1].TS, evs[i-1].TS+evs[i-1].Dur)
			}
		}
	}
	return n, nil
}
