package relation

import (
	"pcqe/internal/conf"
	"pcqe/internal/lineage"
)

// AttachConfidence appends a REAL "_confidence" column to its input,
// computed from each tuple's lineage under the catalog's base-tuple
// confidences as of the version it is opened at — the version the rows
// below it are read at, so the column and the rows cannot come from
// different commits. It makes result confidence first-class inside queries:
// the SQL layer plans it automatically whenever a statement references
// the _confidence pseudo-column, enabling
//
//	SELECT Company, _confidence FROM ... ORDER BY _confidence DESC
//	SELECT ... WHERE _confidence > 0.5
//	SELECT Region, AVG(_confidence) FROM ... GROUP BY Region
//
// The attached value reflects the lineage at this point of the plan;
// operators above (joins, DISTINCT) keep combining lineage, so a value
// attached below a join is the input's confidence, not the join
// result's. The SQL planner therefore attaches it after the FROM/JOIN
// block, where it is the confidence the policy layer will compute: both
// come from evalClassified, bit-equal but for the column's clamp to 1.
type AttachConfidence struct {
	Input   Operator
	Catalog *Catalog

	assign lineage.Assignment
	out    *Schema
	buf    batch
}

// Schema implements Operator.
func (a *AttachConfidence) Schema() *Schema {
	if a.out == nil {
		cols := append([]Column{}, a.Input.Schema().Columns...)
		cols = append(cols, Column{Name: ConfidenceColumn, Type: TypeFloat})
		a.out = &Schema{Columns: cols}
	}
	return a.out
}

// Open implements Operator.
func (a *AttachConfidence) Open(at int64) error {
	a.assign = a.Catalog.AssignmentAt(at)
	return a.Input.Open(at)
}

func (a *AttachConfidence) next() (*batch, error) {
	in, err := a.Input.next()
	if in == nil {
		return nil, err
	}
	a.buf.reset(in.w+1, in.len())
	for i := range in.len() {
		l := in.lins[i].expr()
		_, p, _, err := evalClassified(l, a.assign)
		if err != nil {
			return &a.buf, err
		}
		// A Shannon sum can overshoot 1 by an ulp; the column is user-visible.
		a.buf.vals = append(append(a.buf.vals, in.row(i)...), Float(conf.Clamp(p)))
		a.buf.lins = append(a.buf.lins, lin{e: l})
	}
	return &a.buf, err
}

// Close implements Operator.
func (a *AttachConfidence) Close() error { a.buf.release(); return a.Input.Close() }
