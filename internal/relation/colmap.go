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

// Next implements Operator.
func (m *ColumnMap) Next() (*Tuple, error) {
	t, err := m.Input.Next()
	if err != nil || t == nil {
		return nil, err
	}
	vals := make([]Value, len(m.Indices))
	for i, idx := range m.Indices {
		vals[i] = t.Values[idx]
	}
	return &Tuple{Values: vals, Lineage: t.Lineage}, nil
}

// Close implements Operator.
func (m *ColumnMap) Close() error { return m.Input.Close() }
