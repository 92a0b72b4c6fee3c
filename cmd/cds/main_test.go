package main

import (
	"context"
	"os"
	"strings"
	"testing"
)

// runOutput runs the command with opts and returns what it printed.
func runOutput(t *testing.T, opts options) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = run(context.Background(), opts)
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestTraceListsBlockZeroEvents: the result's allocation report is a
// summary without events, so -trace and -occupancy must walk a recorded
// replay. On MPEG the timeline lists block 0's placements and releases,
// and every FB set's legend names the objects it held.
func TestTraceListsBlockZeroEvents(t *testing.T) {
	out := runOutput(t, options{expName: "MPEG", schedName: "cds", trace: true, occupancy: true})
	_, timeline, ok := strings.Cut(out, "allocation timeline (block 0):\n")
	if !ok {
		t.Fatalf("no allocation timeline in:\n%s", out)
	}
	allocs, releases := 0, 0
	for _, line := range strings.Split(timeline, "\n") {
		if !strings.HasPrefix(line, "  c") {
			break
		}
		switch {
		case strings.Contains(line, " alloc "):
			allocs++
		case strings.Contains(line, " release "):
			releases++
		default:
			t.Errorf("timeline line %q is neither an alloc nor a release", line)
		}
	}
	if allocs == 0 || allocs != releases {
		t.Errorf("block 0 timeline: %d allocs, %d releases; want a nonzero balanced count", allocs, releases)
	}
	if !strings.Contains(timeline, "c0 preload alloc   refWin#i0      set0 @1664    384 B") {
		t.Errorf("timeline does not place refWin#i0 at the top of set 0:\n%s", timeline)
	}
	for _, legend := range []string{"legend: r=refWin c=curMB m=mv", "legend: c=ctbl r=resid c=coef"} {
		if !strings.Contains(out, legend) {
			t.Errorf("occupancy output lacks %q", legend)
		}
	}
}
