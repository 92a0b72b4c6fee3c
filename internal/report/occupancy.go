package report

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"cds/internal/core"
)

// Occupancy renders the paper's Figure 5 view as an address-time map: the
// vertical axis is the Frame Buffer address space of one set (top
// addresses up, like the figure), the horizontal axis is allocation-event
// time, and each cell shows the object resident there (first letter of
// the datum, '.' when free). Shared data sit in the top band, results
// grow from the bottom — the two-sided discipline is visible at a glance.
func Occupancy(w io.Writer, rep *core.AllocationReport, set, fbBytes, cols int) {
	if cols <= 0 {
		cols = 64
	}
	const rows = 16
	rowBytes := (fbBytes + rows - 1) / rows

	// Collect the live intervals after each event on the set, in
	// placement order: a row that two intervals share shows the one
	// placed first.
	type interval struct {
		inst       int32
		addr, size int
		datum      string
	}
	var live []interval
	var snapshots [][]interval
	for i := range rep.NumEvents() {
		ev := rep.Event(i)
		if ev.Set != set {
			continue
		}
		switch ev.Op {
		case core.OpAlloc:
			live = append(live, interval{inst: ev.Inst, addr: ev.Addr, size: ev.Bytes, datum: rep.DatumName(ev)})
		case core.OpRelease:
			live = slices.DeleteFunc(live, func(iv interval) bool { return iv.inst == ev.Inst })
		}
		snapshots = append(snapshots, slices.Clone(live))
	}
	if len(snapshots) == 0 {
		fmt.Fprintf(w, "no events on set %d\n", set)
		return
	}

	// Sample the snapshot sequence down to the column budget.
	step := 1
	if len(snapshots) > cols {
		step = (len(snapshots) + cols - 1) / cols
	}
	var sampled [][]interval
	for i := 0; i < len(snapshots); i += step {
		sampled = append(sampled, snapshots[i])
	}

	fmt.Fprintf(w, "FB set %d occupancy (top = high addresses; %d B per row; %d events per column)\n",
		set, rowBytes, step)
	for row := rows - 1; row >= 0; row-- {
		lo, hi := row*rowBytes, (row+1)*rowBytes
		var b strings.Builder
		fmt.Fprintf(&b, "%5d |", lo)
		for _, snap := range sampled {
			ch := byte('.')
			for _, iv := range snap {
				if iv.addr < hi && lo < iv.addr+iv.size {
					ch = glyph(iv.datum)
					break
				}
			}
			b.WriteByte(ch)
		}
		fmt.Fprintln(w, b.String())
	}
}

// glyph picks a stable display character for a datum.
func glyph(datum string) byte {
	for i := 0; i < len(datum); i++ {
		c := datum[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			return c
		}
	}
	return '#'
}

// Legend lists the data appearing in the report's events on the set with
// their glyphs.
func Legend(w io.Writer, rep *core.AllocationReport, set int) {
	seen := map[string]bool{}
	fmt.Fprint(w, "legend:")
	for i := range rep.NumEvents() {
		ev := rep.Event(i)
		if ev.Set != set || ev.Op != core.OpAlloc {
			continue
		}
		datum := rep.DatumName(ev)
		if seen[datum] {
			continue
		}
		seen[datum] = true
		fmt.Fprintf(w, " %c=%s", glyph(datum), datum)
	}
	fmt.Fprintln(w)
}
