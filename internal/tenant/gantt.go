package tenant

// SVG renderers for multi-tenant plans, in the style of internal/trace's
// Gantt exporter (self-contained, no scripts):
//
//   - WriteGanttSVG — one RC-array lane per tenant on a shared time
//     axis: compute spans colored by tenant, arrival cycle as a dashed
//     marker, the lane's end annotated against its solo lower bound. It
//     answers the fairness question at a glance: who held the array
//     when, and how interleaved the tenants really are.
//   - WriteCurvesSVG — each tenant's cumulative service share over
//     executed cycles (one polyline per tenant) against its ideal
//     weighted share (dashed reference): convergence is fairness,
//     departure is the bounded lag the verifier checks.

import (
	"fmt"
	"io"
	"strings"
)

const (
	ganttWidth     = 960
	ganttMarginL   = 130
	ganttMarginR   = 16
	ganttLaneH     = 26
	ganttLaneGap   = 10
	ganttHeaderH   = 40
	ganttAxisH     = 28
	ganttPlotW     = ganttWidth - ganttMarginL - ganttMarginR
	ganttMinSpanPx = 0.5
	ganttTicks     = 8
	ganttTitleSize = 13
	ganttLabelSize = 11
)

// tenantFill cycles a categorical palette by lane index.
func tenantFill(lane int) string {
	palette := []string{
		"#4878a8", "#a85a5a", "#5b9a68", "#c2803d",
		"#7a5fa8", "#3d8d8d", "#a8578d", "#8a8a3d",
	}
	return palette[lane%len(palette)]
}

func svgEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// WriteGanttSVG renders the executed plan as per-tenant lanes.
func WriteGanttSVG(w io.Writer, p *Plan) error {
	if p == nil || p.Exec == nil {
		return fmt.Errorf("tenant: no executed plan to render")
	}
	makespan := p.Exec.TotalCycles
	if makespan < 1 {
		makespan = 1
	}
	x := func(cycle int) float64 {
		return ganttMarginL + float64(cycle)/float64(makespan)*ganttPlotW
	}
	height := ganttHeaderH + len(p.Lanes)*(ganttLaneH+ganttLaneGap) + ganttAxisH

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="ui-monospace, SFMono-Regular, Menlo, monospace">`+"\n",
		ganttWidth, height, ganttWidth, height)
	b.WriteString(`<rect width="100%" height="100%" fill="#fcfcf9"/>` + "\n")
	fmt.Fprintf(&b, `<text x="%d" y="16" font-size="%d" fill="#111" font-weight="bold">%s: %d tenants, %d cycles</text>`+"\n",
		ganttMarginL, ganttTitleSize, svgEscape(p.Base.Name), len(p.Lanes), p.Exec.TotalCycles)
	fmt.Fprintf(&b, `<text x="%d" y="32" font-size="%d" fill="#555">RC-array occupancy per tenant; dashed line = arrival</text>`+"\n",
		ganttMarginL, ganttLabelSize)

	for li, l := range p.Lanes {
		y := ganttHeaderH + li*(ganttLaneH+ganttLaneGap)
		label := fmt.Sprintf("%s w=%d", l.Tenant.ID, l.Tenant.Weight)
		if l.Tenant.Priority > 0 {
			label += fmt.Sprintf(" p=%d", l.Tenant.Priority)
		}
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="%d" fill="#333" text-anchor="end">%s</text>`+"\n",
			ganttMarginL-8, y+ganttLaneH/2+4, ganttLabelSize, svgEscape(label))
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="#eeeee8"/>`+"\n",
			ganttMarginL, y, ganttPlotW, ganttLaneH)
		visits := l.Result.Schedule.Visits()
		for vi := range visits {
			x0 := x(p.Exec.LaneVisitStart[li][vi])
			x1 := x(p.Exec.LaneVisitEnd[li][vi])
			wpx := x1 - x0
			if wpx < ganttMinSpanPx {
				wpx = ganttMinSpanPx
			}
			fmt.Fprintf(&b, `<rect x="%.2f" y="%d" width="%.2f" height="%d" fill="%s" stroke="#ffffff" stroke-width="0.3"><title>%s C%d block %d [%d,%d)</title></rect>`+"\n",
				x0, y+2, wpx, ganttLaneH-4, tenantFill(li),
				svgEscape(l.Tenant.ID), visits[vi].Cluster, visits[vi].Block,
				p.Exec.LaneVisitStart[li][vi], p.Exec.LaneVisitEnd[li][vi])
		}
		if at := l.Tenant.Arrive; at > 0 {
			fmt.Fprintf(&b, `<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" stroke="#555" stroke-width="1" stroke-dasharray="3,3"/>`+"\n",
				x(at), y, x(at), y+ganttLaneH)
		}
		fmt.Fprintf(&b, `<text x="%.2f" y="%d" font-size="%d" fill="#555">end %d (solo %d)</text>`+"\n",
			x(p.Exec.LaneEnd[li])+4, y+ganttLaneH/2+4, ganttLabelSize-1,
			p.Exec.LaneEnd[li], l.Tenant.Arrive+l.SoloLastCompute())
	}

	axisY := ganttHeaderH + len(p.Lanes)*(ganttLaneH+ganttLaneGap) + 4
	writeAxis(&b, axisY, makespan, x)
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCurvesSVG renders the fairness curves of the executed plan.
func WriteCurvesSVG(w io.Writer, p *Plan) error {
	if p == nil || p.Exec == nil {
		return fmt.Errorf("tenant: no executed plan to render")
	}
	curves := p.Curves()
	ideal := p.IdealShares()
	makespan := p.Exec.TotalCycles
	if makespan < 1 {
		makespan = 1
	}
	const plotH = 220
	height := ganttHeaderH + plotH + ganttAxisH
	x := func(cycle int) float64 {
		return ganttMarginL + float64(cycle)/float64(makespan)*ganttPlotW
	}
	y := func(share float64) float64 {
		return float64(ganttHeaderH+plotH) - share*plotH
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="ui-monospace, SFMono-Regular, Menlo, monospace">`+"\n",
		ganttWidth, height, ganttWidth, height)
	b.WriteString(`<rect width="100%" height="100%" fill="#fcfcf9"/>` + "\n")
	fmt.Fprintf(&b, `<text x="%d" y="16" font-size="%d" fill="#111" font-weight="bold">Cumulative service share (solid) vs ideal weighted share (dashed)</text>`+"\n",
		ganttMarginL, ganttTitleSize)
	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="#eeeee8"/>`+"\n",
		ganttMarginL, ganttHeaderH, ganttPlotW, plotH)

	lx := ganttMarginL
	for li, l := range p.Lanes {
		fmt.Fprintf(&b, `<rect x="%d" y="22" width="12" height="12" fill="%s"/>`+"\n", lx, tenantFill(li))
		fmt.Fprintf(&b, `<text x="%d" y="32" font-size="%d" fill="#333">%s w=%d</text>`+"\n",
			lx+16, ganttLabelSize, svgEscape(l.Tenant.ID), l.Tenant.Weight)
		lx += 22 + 9*(len(l.Tenant.ID)+4)
	}

	for li := range p.Lanes {
		fmt.Fprintf(&b, `<line x1="%d" y1="%.2f" x2="%d" y2="%.2f" stroke="%s" stroke-width="1" stroke-dasharray="5,4" opacity="0.6"/>`+"\n",
			ganttMarginL, y(ideal[li]), ganttMarginL+ganttPlotW, y(ideal[li]), tenantFill(li))
		pts := curves[li]
		if len(pts) == 0 {
			continue
		}
		var poly strings.Builder
		for pi, pt := range pts {
			if pi > 0 {
				poly.WriteByte(' ')
			}
			fmt.Fprintf(&poly, "%.2f,%.2f", x(pt.Cycle), y(pt.Share))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.6"/>`+"\n",
			poly.String(), tenantFill(li))
	}

	writeAxis(&b, ganttHeaderH+plotH+4, makespan, x)
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// writeAxis draws the shared cycle axis with round tick labels.
func writeAxis(b *strings.Builder, yTop, makespan int, x func(int) float64) {
	fmt.Fprintf(b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#999" stroke-width="1"/>`+"\n",
		ganttMarginL, yTop, ganttMarginL+ganttPlotW, yTop)
	for t := 0; t <= ganttTicks; t++ {
		cycle := makespan * t / ganttTicks
		fmt.Fprintf(b, `<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" stroke="#999" stroke-width="1"/>`+"\n",
			x(cycle), yTop, x(cycle), yTop+4)
		fmt.Fprintf(b, `<text x="%.2f" y="%d" font-size="%d" fill="#555" text-anchor="middle">%d</text>`+"\n",
			x(cycle), yTop+16, ganttLabelSize-1, cycle)
	}
}
