package relation

import "cmp"

// ColumnStats summarizes one column for cardinality estimation.
type ColumnStats struct {
	// Distinct is the exact distinct-value count at collection time
	// (an estimate only in the sense that the table may have mutated
	// since; mutation invalidates the whole TableStats).
	Distinct int
	// Nulls counts NULL values.
	Nulls int
	// Min and Max are the extreme non-NULL values under Compare; both
	// are NULL when the column holds no comparable values.
	Min, Max Value
}

// TableStats holds per-table statistics for the cost-based planner: row
// count plus per-column distinct/null counts and min/max bounds. Stats
// are collected lazily on first use and invalidated by any row mutation
// (Insert, Delete, Update) through the table's version counter.
type TableStats struct {
	Rows int
	Cols []ColumnStats

	version int64
}

// Stats returns the table's statistics, recomputing them when a
// committed row mutation has occurred since the last collection.
// Collection is a single O(rows × columns) pass over the rows visible
// at the latest committed version; between mutations repeated calls
// are free. Safe for concurrent use (a commit racing the collection at
// worst re-collects on the next call).
func (t *Table) Stats() *TableStats {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	m := t.mutations.Load()
	if t.stats != nil && t.stats.version == m {
		return t.stats
	}
	t.stats = collectStats(t, m)
	return t.stats
}

func collectStats(t *Table, version int64) *TableStats {
	at := t.catalog.Version()
	v := t.view() // taken after at: it holds every record visible there
	var rows []int32
	for r := int32(0); int(r) < v.n; r++ {
		if v.live(r, at) {
			rows = append(rows, r)
		}
	}
	st := &TableStats{Rows: len(rows), Cols: make([]ColumnStats, t.schema.Len()), version: version}
	for c := range st.Cols {
		switch t.schema.Columns[c].Type {
		case TypeFloat:
			st.Cols[c] = columnStats(v, rows, c, func(c *cells) []float64 { return c.f }, less[float64], Float)
		case TypeString:
			// Distinct codes are distinct strings; the bounds order the
			// strings.
			text := t.catalog.text
			st.Cols[c] = columnStats(v, rows, c, func(c *cells) []int32 { return c.codes },
				func(a, b int32) bool { return text.at(a) < text.at(b) },
				func(code int32) Value { return String_(text.at(code)) })
		case TypeBool:
			st.Cols[c] = columnStats(v, rows, c, func(c *cells) []bool { return c.b }, func(a, b bool) bool { return !a && b }, Bool)
		default: // INTEGER, or a column only NULL can be stored in
			st.Cols[c] = columnStats(v, rows, c, func(c *cells) []int64 { return c.i }, less[int64], Int)
		}
	}
	return st
}

func less[T cmp.Ordered](a, b T) bool { return a < b }

// columnStats summarises column col over the given records straight from
// its typed vector: distinct values as Value.Key tells them apart (one
// NaN), bounds as Compare orders them (a NaN never replaces one, nor is
// replaced).
func columnStats[T comparable](v recView, rows []int32, col int, vec func(*cells) []T, lt func(a, b T) bool, val func(T) Value) ColumnStats {
	cs := ColumnStats{Min: Null(), Max: Null()}
	seen, nan := map[T]struct{}{}, 0
	var lo, hi T
	have := false
	for _, r := range rows {
		ch, k := v.at(r)
		if ch.cols[col].null(k) {
			cs.Nulls++
			continue
		}
		x := vec(&ch.cols[col])[k]
		if x != x {
			nan = 1
		} else {
			seen[x] = struct{}{}
		}
		if !have || lt(x, lo) {
			lo = x
		}
		if !have || lt(hi, x) {
			hi = x
		}
		have = true
	}
	cs.Distinct = len(seen) + nan
	if have {
		cs.Min, cs.Max = val(lo), val(hi)
	}
	return cs
}

// DistinctOf returns the distinct-value count of a column with a floor
// of 1, the form cardinality estimation divides by.
func (st *TableStats) DistinctOf(col int) float64 {
	if col < 0 || col >= len(st.Cols) || st.Cols[col].Distinct < 1 {
		return 1
	}
	return float64(st.Cols[col].Distinct)
}

// HashJoinableTypes reports whether equality on two column types is
// safe to evaluate through hash-key matching (Value.Key). Identical
// types always are; the int/float pair is too, because Key folds
// integral floats onto integer keys exactly where numeric comparison
// would declare them equal. Any other mixed pair must go through a
// comparison join: Compare errors on incompatible types, and a hash
// join would silently produce an empty result instead of that error.
func HashJoinableTypes(a, b Type) bool {
	if a == b {
		return true
	}
	numeric := func(t Type) bool { return t == TypeInt || t == TypeFloat }
	return numeric(a) && numeric(b)
}
