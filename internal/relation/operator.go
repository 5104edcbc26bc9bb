package relation

import "pcqe/internal/lineage"

// Operator is an iterator over batches of rows. Operators propagate
// lineage: every output row's lineage records how it was derived from
// base tuples.
type Operator interface {
	// Schema describes the output tuples.
	Schema() *Schema
	// Open prepares the operator (and its children) to iterate over the
	// rows of committed version at: every base-table read, index probe
	// and attached confidence below it resolves at exactly that version.
	Open(at int64) error
	// next returns the next batch of rows, nil at end of stream. With an
	// error, the batch (if any) holds the rows before the failing one,
	// so a consumer that stops early (Limit) never meets an error the
	// row-at-a-time order would not have reached.
	next() (*batch, error)
	// Close releases resources. Operators may be reopened after Close.
	Close() error
}

// RunAt drains an operator at committed version v, handling Open/Close:
// the result is consistent with that one committed state even while
// writers commit concurrently.
func RunAt(op Operator, v int64) ([]*Tuple, error) {
	var all rowStore
	if err := drain(op, v, &all); err != nil || all.n == 0 {
		return nil, err
	}
	// One Tuple slab; the values stay in all's blocks, each row capped.
	// Priced rows' numbers share a second slab, made at the first.
	ts, out := make([]Tuple, all.n), make([]*Tuple, all.n)
	var ps []priced
	for i := range ts {
		l := all.lin(i)
		ts[i] = Tuple{Values: all.row(i), Lineage: l.expr()}
		if p, ok := l.price(); ok {
			if ps == nil {
				ps = make([]priced, 0, all.n-i)
			}
			ps = append(ps, priced{p: p, at: v, of: l.e})
			ts[i].priced = &ps[len(ps)-1]
		}
		out[i] = &ts[i]
	}
	return out, nil
}

// Values wraps a materialized slice of tuples as an operator (useful for
// tests and for feeding computed intermediate results back into a plan).
type Values struct {
	Rows      []*Tuple
	RowSchema *Schema
	materialized
}

// Schema implements Operator.
func (v *Values) Schema() *Schema { return v.RowSchema }

// Open implements Operator.
func (v *Values) Open(int64) error {
	v.rows, v.pos = rowStore{w: v.RowSchema.Len()}, 0
	for _, t := range v.Rows {
		v.rows.add(t.Values, lin{e: t.Lineage})
	}
	return nil
}

// Select filters tuples by a boolean predicate. Lineage passes through
// unchanged: selection does not combine evidence. Filter builds it only
// over inputs that are not a base-table leaf (the leaf runs its filter
// as kernels over the stored columns itself).
type Select struct {
	Input Operator
	Pred  Expr

	out batch
	row Tuple // the row Pred is evaluated over
}

// Schema implements Operator.
func (s *Select) Schema() *Schema { return s.Input.Schema() }

// Open implements Operator.
func (s *Select) Open(at int64) error { return s.Input.Open(at) }

func (s *Select) next() (*batch, error) {
	in, err := s.Input.next()
	if in == nil {
		return nil, err
	}
	s.out.reset(in.w, in.len())
	for i := range in.len() {
		s.row.Values = in.row(i)
		if ok, err := EvalBool(s.Pred, &s.row); err != nil {
			return &s.out, err
		} else if ok {
			s.out.vals, s.out.lins = append(s.out.vals, s.row.Values...), append(s.out.lins, in.lins[i])
		}
	}
	return &s.out, err
}

// Close implements Operator.
func (s *Select) Close() error {
	s.out.release()
	s.row = Tuple{}
	return s.Input.Close()
}

// Project computes output columns from expressions. With Distinct set,
// duplicate output rows are merged and their lineages are OR-ed — this is
// the operation that produced p25 = p02 ∨ p03 in the paper's running
// example.
type Project struct {
	Input    Operator
	Exprs    []Expr
	Names    []string // output column names, parallel to Exprs
	Distinct bool

	out *Schema
	materialized
	buf batch
	row Tuple // the input row the expressions are evaluated over
}

// Schema implements Operator.
func (p *Project) Schema() *Schema {
	if p.out == nil {
		cols := make([]Column, len(p.Exprs))
		for i, e := range p.Exprs {
			name := ""
			if i < len(p.Names) {
				name = p.Names[i]
			}
			if name == "" {
				if cr, ok := e.(*ColRef); ok {
					name = cr.Col.Name
				} else {
					name = e.String()
				}
			}
			cols[i] = Column{Name: name, Type: e.Type()}
		}
		p.out = &Schema{Columns: cols}
	}
	return p.out
}

// Open implements Operator.
func (p *Project) Open(at int64) error {
	p.rows, p.pos = rowStore{}, 0
	if err := p.Input.Open(at); err != nil {
		return err
	}
	if !p.Distinct {
		return nil
	}
	// DISTINCT materializes: merge duplicates, OR their lineage with
	// shared conjuncts factored out (lineage.OrFactored).
	var d groups
	b, err := p.project()
	for ; b != nil && err == nil; b, err = p.project() {
		d.addAll(b)
	}
	p.rows = *d.fold(lineage.OrFactored)
	return err
}

// project evaluates the expressions over the input's next batch.
func (p *Project) project() (*batch, error) {
	in, err := p.Input.next()
	if in == nil {
		return nil, err
	}
	p.buf.reset(len(p.Exprs), in.len())
	for i := range in.len() {
		p.row.Values = in.row(i)
		for _, e := range p.Exprs {
			v, err := e.Eval(&p.row)
			if err != nil {
				return &p.buf, err // the row's values so far lie past its rows
			}
			p.buf.vals = append(p.buf.vals, v)
		}
		p.buf.lins = append(p.buf.lins, in.lins[i])
	}
	return &p.buf, err
}

func (p *Project) next() (*batch, error) {
	if p.Distinct {
		return p.materialized.next()
	}
	return p.project()
}

// Close implements Operator.
func (p *Project) Close() error {
	p.rows = rowStore{}
	p.buf.release()
	p.row = Tuple{}
	return p.Input.Close()
}

// Limit passes through at most N tuples (with an optional offset).
type Limit struct {
	Input   Operator
	N       int
	Offset  int
	emitted int
	skipped int
	view    batch
}

// Schema implements Operator.
func (l *Limit) Schema() *Schema { return l.Input.Schema() }

// Open implements Operator.
func (l *Limit) Open(at int64) error {
	l.emitted, l.skipped = 0, 0
	return l.Input.Open(at)
}

func (l *Limit) done() bool { return l.skipped >= l.Offset && l.N >= 0 && l.emitted >= l.N }

func (l *Limit) next() (*batch, error) {
	for !l.done() {
		in, err := l.Input.next()
		if in == nil {
			return nil, err
		}
		lo, hi := min(l.Offset-l.skipped, in.len()), in.len()
		if l.N >= 0 {
			hi = min(hi, lo+l.N-l.emitted)
		}
		l.skipped, l.emitted = l.skipped+lo, l.emitted+hi-lo
		l.view = batch{w: in.w, vals: in.vals[lo*in.w : hi*in.w], lins: in.lins[lo:hi]}
		// The rows before an input error are all taken only when the
		// limit still wants more: then it reaches the failing row.
		if err != nil && !l.done() {
			return &l.view, err
		}
		if hi > lo {
			return &l.view, nil
		}
	}
	return nil, nil
}

// Close implements Operator.
func (l *Limit) Close() error { l.view = batch{}; return l.Input.Close() }
