package relation

// Operator is a Volcano-style iterator over tuples. Next returns
// (nil, nil) at end of stream. Operators propagate lineage: every output
// tuple's Lineage field records how it was derived from base tuples.
type Operator interface {
	// Schema describes the output tuples.
	Schema() *Schema
	// Open prepares the operator (and its children) to iterate over the
	// rows of committed version at: every base-table read, index probe
	// and attached confidence below it resolves at exactly that version.
	Open(at int64) error
	// Next produces the next tuple, or (nil, nil) at end of stream.
	Next() (*Tuple, error)
	// Close releases resources. Operators may be reopened after Close.
	Close() error
}

// RunAt drains an operator at committed version v, handling Open/Close:
// the result is consistent with that one committed state even while
// writers commit concurrently.
func RunAt(op Operator, v int64) ([]*Tuple, error) {
	if err := op.Open(v); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []*Tuple
	for {
		t, err := op.Next()
		if err != nil {
			return nil, err
		}
		if t == nil {
			return out, nil
		}
		out = append(out, t)
	}
}

// Values wraps a materialized slice of tuples as an operator (useful for
// tests and for feeding computed intermediate results back into a plan).
type Values struct {
	Rows      []*Tuple
	RowSchema *Schema
	pos       int
}

// Schema implements Operator.
func (v *Values) Schema() *Schema { return v.RowSchema }

// Open implements Operator.
func (v *Values) Open(int64) error { v.pos = 0; return nil }

// Next implements Operator.
func (v *Values) Next() (*Tuple, error) {
	if v.pos >= len(v.Rows) {
		return nil, nil
	}
	t := v.Rows[v.pos]
	v.pos++
	return t, nil
}

// Close implements Operator.
func (v *Values) Close() error { return nil }

// materialized is the output side of the operators that build their
// whole result in Open (DISTINCT, set operations, Aggregate, Sort):
// Next hands the buffer out row by row.
type materialized struct {
	buffer []*Tuple
	pos    int
}

// Next implements Operator.
func (m *materialized) Next() (*Tuple, error) {
	if m.pos >= len(m.buffer) {
		return nil, nil
	}
	m.pos++
	return m.buffer[m.pos-1], nil
}

// Select filters tuples by a boolean predicate. Lineage passes through
// unchanged: selection does not combine evidence. Filter builds it only
// over inputs that are not a base-table leaf (the leaf runs its filter
// as kernels over the stored columns itself).
type Select struct {
	Input Operator
	Pred  Expr
}

// Schema implements Operator.
func (s *Select) Schema() *Schema { return s.Input.Schema() }

// Open implements Operator.
func (s *Select) Open(at int64) error { return s.Input.Open(at) }

// Next implements Operator.
func (s *Select) Next() (*Tuple, error) {
	for {
		t, err := s.Input.Next()
		if err != nil || t == nil {
			return nil, err
		}
		ok, err := EvalBool(s.Pred, t)
		if err != nil {
			return nil, err
		}
		if ok {
			return t, nil
		}
	}
}

// Close implements Operator.
func (s *Select) Close() error { return s.Input.Close() }

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
	p.buffer, p.pos = nil, 0
	if err := p.Input.Open(at); err != nil {
		return err
	}
	if !p.Distinct {
		return nil
	}
	// DISTINCT materializes: merge duplicates, OR their lineage.
	var d distinctRows
	for {
		in, err := p.Input.Next()
		if err != nil {
			return err
		}
		if in == nil {
			break
		}
		out, err := p.projectRow(in)
		if err != nil {
			return err
		}
		d.add(out)
	}
	p.buffer = d.rows()
	return nil
}

func (p *Project) projectRow(in *Tuple) (*Tuple, error) {
	vals := make([]Value, len(p.Exprs))
	for i, e := range p.Exprs {
		v, err := e.Eval(in)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return &Tuple{Values: vals, Lineage: in.Lineage}, nil
}

// Next implements Operator.
func (p *Project) Next() (*Tuple, error) {
	if p.Distinct {
		return p.materialized.Next()
	}
	in, err := p.Input.Next()
	if err != nil || in == nil {
		return nil, err
	}
	return p.projectRow(in)
}

// Close implements Operator.
func (p *Project) Close() error {
	p.buffer = nil
	return p.Input.Close()
}

// Limit passes through at most N tuples (with an optional offset).
type Limit struct {
	Input   Operator
	N       int
	Offset  int
	emitted int
	skipped int
}

// Schema implements Operator.
func (l *Limit) Schema() *Schema { return l.Input.Schema() }

// Open implements Operator.
func (l *Limit) Open(at int64) error {
	l.emitted, l.skipped = 0, 0
	return l.Input.Open(at)
}

// Next implements Operator.
func (l *Limit) Next() (*Tuple, error) {
	for l.skipped < l.Offset {
		t, err := l.Input.Next()
		if err != nil || t == nil {
			return nil, err
		}
		l.skipped++
	}
	if l.N >= 0 && l.emitted >= l.N {
		return nil, nil
	}
	t, err := l.Input.Next()
	if err != nil || t == nil {
		return nil, err
	}
	l.emitted++
	return t, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.Input.Close() }
