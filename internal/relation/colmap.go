package relation

// ColumnMap projects the input onto a subset or permutation of its
// columns by position. Unlike Project it preserves the source columns
// verbatim — including their table qualifiers — so name resolution
// above it behaves as if the dropped columns never existed. The
// planner uses it to prune unreferenced columns below joins and to
// restore statement column order after join reordering. Lineage passes
// through unchanged.
type ColumnMap struct {
	Input   Operator
	Indices []int

	out *Schema
	buf batch
}

// Schema implements Operator.
func (m *ColumnMap) Schema() *Schema {
	if m.out == nil {
		m.out = m.Input.Schema().Project(m.Indices)
	}
	return m.out
}

// Open implements Operator.
func (m *ColumnMap) Open(at int64) error { return m.Input.Open(at) }

func (m *ColumnMap) next() (*batch, error) {
	in, err := m.Input.next()
	if in == nil {
		return nil, err
	}
	m.buf.reset(len(m.Indices), in.len())
	for i := range in.len() {
		row := in.row(i)
		for _, c := range m.Indices {
			m.buf.vals = append(m.buf.vals, row[c])
		}
	}
	m.buf.lins = append(m.buf.lins, in.lins...)
	return &m.buf, err
}

// Close implements Operator.
func (m *ColumnMap) Close() error { m.buf.release(); return m.Input.Close() }
