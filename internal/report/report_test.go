package report

import (
	"strings"
	"testing"

	"cds/internal/app"
	"cds/internal/core"
)

// oneIterReport returns a report of events over a one-iteration
// schedule of an app declaring data in the given order, so that key i
// names data[i]'s instance.
func oneIterReport(t *testing.T, data []string, events []core.AllocEvent) *core.AllocationReport {
	t.Helper()
	b := app.NewBuilder("occupancy", 1)
	for _, d := range data {
		b.Datum(d, 8)
	}
	b.Kernel("k", 16, 10).In(data[0]).Out(data[1:]...)
	s := core.Schedule{P: app.MustPartition(b.MustBuild(), 1, 1), RF: 1}.WithVisits([]core.Visit{{Iters: 1}})
	return core.NewAllocationReport(s, events)
}

func sampleRows() []Row {
	return []Row{
		{
			Name: "E1", N: 4, NMax: 2, DSBytes: 2048, DTBytes: 1152,
			RF: 1, PaperRF: 1, FBBytes: 1024,
			DSImp: 0, CDSImp: 16.6, PaperDS: 0, PaperCDS: 19,
		},
		{
			Name: "MPEG@1K", N: 4, NMax: 3, DSBytes: 1800, DTBytes: 0,
			RF: 1, PaperRF: 0, FBBytes: 1024,
			BasicFailed: true, PaperDS: -1, PaperCDS: -1,
		},
	}
}

func TestTable1Rendering(t *testing.T) {
	var b strings.Builder
	Table1(&b, sampleRows())
	out := b.String()
	for _, want := range []string{"E1", "2K", "1.1K", "1/1", "0%/0%", "17%/19%", "MPEG@1K", "basic: n/a"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure6Rendering(t *testing.T) {
	var b strings.Builder
	Figure6(&b, sampleRows())
	out := b.String()
	if !strings.Contains(out, "CDS ####") {
		t.Errorf("Figure6 missing CDS bar:\n%s", out)
	}
	if !strings.Contains(out, "cannot execute") {
		t.Errorf("Figure6 missing basic-failed note:\n%s", out)
	}
	// The DS bar for E1 is zero-length.
	if strings.Contains(out, "DS  #") {
		t.Errorf("Figure6 shows a bar for a 0%% improvement:\n%s", out)
	}
}

func TestCSV(t *testing.T) {
	var b strings.Builder
	CSV(&b, sampleRows())
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "experiment,") {
		t.Errorf("CSV header wrong: %q", lines[0])
	}
	if !strings.Contains(lines[1], "E1,4,2,2048,1152,1,1,1024,0.00,16.60") {
		t.Errorf("CSV row wrong: %q", lines[1])
	}
	if !strings.HasSuffix(lines[2], "true") {
		t.Errorf("CSV basic_failed flag missing: %q", lines[2])
	}
}

func TestBarClamping(t *testing.T) {
	if bar(-5, 1) != "" {
		t.Error("negative bar should be empty")
	}
	if len(bar(1000, 1)) != 100 {
		t.Error("bar should clamp at 100 columns")
	}
}

func TestFormatSize(t *testing.T) {
	tests := []struct {
		n    int
		want string
	}{
		{2048, "2K"},
		{1152, "1.1K"},
		{64, "64"},
		{0, "0"},
	}
	for _, tt := range tests {
		if got := formatSize(tt.n); got != tt.want {
			t.Errorf("formatSize(%d) = %q, want %q", tt.n, got, tt.want)
		}
	}
}

func TestOccupancyRendering(t *testing.T) {
	rep := oneIterReport(t, []string{"d", "r", "x"}, []core.AllocEvent{
		{Op: core.OpAlloc, Set: 0, Inst: 0, Addr: 900, Bytes: 100},
		{Op: core.OpAlloc, Set: 0, Inst: 1, Addr: 0, Bytes: 64},
		{Op: core.OpRelease, Set: 0, Inst: 0, Addr: 900, Bytes: 100},
		{Op: core.OpAlloc, Set: 1, Inst: 2, Addr: 0, Bytes: 10},
	})
	var b strings.Builder
	Occupancy(&b, rep, 0, 1024, 8)
	out := b.String()
	if !strings.Contains(out, "FB set 0") {
		t.Errorf("missing header:\n%s", out)
	}
	// d occupies the top band in early columns, r the bottom band.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	top := lines[1] // highest address row
	bottom := lines[len(lines)-1]
	if !strings.Contains(top, "d") {
		t.Errorf("top band missing d:\n%s", out)
	}
	if !strings.Contains(bottom, "r") {
		t.Errorf("bottom band missing r:\n%s", out)
	}
	if strings.Contains(out, "x") {
		t.Errorf("set-1 object leaked into set-0 view:\n%s", out)
	}

	var lg strings.Builder
	Legend(&lg, rep, 0)
	if !strings.Contains(lg.String(), "d=d") || !strings.Contains(lg.String(), "r=r") {
		t.Errorf("legend wrong: %s", lg.String())
	}

	var empty strings.Builder
	Occupancy(&empty, &core.AllocationReport{}, 3, 1024, 8)
	if !strings.Contains(empty.String(), "no events") {
		t.Error("empty set not reported")
	}

	// Two placements share the lowest row: it shows the one placed
	// first, every time.
	shared := oneIterReport(t, []string{"p", "q"}, []core.AllocEvent{
		{Op: core.OpAlloc, Set: 0, Inst: 0, Addr: 0, Bytes: 8},
		{Op: core.OpAlloc, Set: 0, Inst: 1, Addr: 8, Bytes: 8},
	})
	for i := 0; i < 20; i++ {
		var sb strings.Builder
		Occupancy(&sb, shared, 0, 1024, 8)
		lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
		if row := lines[len(lines)-1]; !strings.HasSuffix(row, "|pp") {
			t.Fatalf("shared row %q, want the first placement p in both columns", row)
		}
	}
}

func TestGlyph(t *testing.T) {
	if glyph("curMB") != 'c' || glyph("##") != '#' || glyph("9lives") != '9' {
		t.Error("glyph selection broken")
	}
}

func TestMarkdown(t *testing.T) {
	var b strings.Builder
	Markdown(&b, sampleRows())
	out := b.String()
	if !strings.Contains(out, "| E1 | 4 | 2 | 1/1 | 1K | 0% / 0% | 17% / 19% |") {
		t.Errorf("markdown row wrong:\n%s", out)
	}
	if !strings.Contains(out, "basic: n/a") {
		t.Errorf("markdown missing infeasible marker:\n%s", out)
	}
}
