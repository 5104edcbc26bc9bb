package core

import (
	"fmt"
	"strings"
)

// Report renders a response as an aligned text table with a confidence
// column, followed by the improvement proposal (if any) — the format the
// cmd/pcqe CLI and the examples print.
func (r *Response) Report() string { return r.report(false) }

// ReportWithLineage is Report with an extra column showing each released
// row's lineage formula over base-tuple variables (Trio-style), e.g.
// "((t2 | t3) & t13)" — the paper's Table 3 view.
func (r *Response) ReportWithLineage() string { return r.report(true) }

func (r *Response) report(lineageCol bool) string {
	var b strings.Builder
	headers := make([]string, 0, r.Schema.Len()+2)
	for _, c := range r.Schema.Columns {
		headers = append(headers, c.Name)
	}
	headers = append(headers, "confidence")
	if lineageCol {
		headers = append(headers, "lineage")
	}

	rows := make([][]string, 0, r.Released.Len())
	for i := range r.Released.Len() {
		row := r.Released.At(i)
		cells := make([]string, 0, len(headers))
		for _, v := range row.Tuple.Values {
			cells = append(cells, v.String())
		}
		cells = append(cells, fmt.Sprintf("%.4g", row.Confidence))
		if lineageCol {
			cells = append(cells, row.Tuple.Lineage.String())
		}
		rows = append(rows, cells)
	}
	writeTable(&b, headers, rows)

	if r.PolicyApplied {
		fmt.Fprintf(&b, "policy threshold β=%.4g: released %d, withheld %d\n",
			r.Threshold, r.Released.Len(), len(r.Withheld))
	} else {
		fmt.Fprintf(&b, "no confidence policy applied: released all %d rows\n", r.Released.Len())
	}
	if r.Degraded != nil {
		fmt.Fprintf(&b, "improvement planning degraded: %v\n", r.Degraded)
	}
	if r.Proposal != nil {
		partial := ""
		if r.Proposal.Partial() {
			partial = "partial "
		}
		fmt.Fprintf(&b, "%simprovement proposal (%s, cost %.4g):\n", partial, r.Proposal.Solver(), r.Proposal.Cost())
		for _, inc := range r.Proposal.Increments() {
			fmt.Fprintf(&b, "  raise tuple t%d: %.3g → %.3g (cost %.4g)\n",
				int(inc.Var), inc.From, inc.To, inc.Cost)
		}
	}
	return b.String()
}

func writeTable(b *strings.Builder, headers []string, rows [][]string) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		b.WriteString("\n")
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
}
