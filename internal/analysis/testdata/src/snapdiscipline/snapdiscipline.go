// Package snapdiscipline fixtures: relation reads must pin a snapshot.
package snapdiscipline

// Miniature shapes of the relation surface the analyzer keys on.

type Tuple struct{ Confidence float64 }

type Table struct{ rows []*Tuple }

func (t *Table) Rows() []*Tuple              { return t.rows }
func (t *Table) RowsAt(s *Snapshot) []*Tuple { return t.rows }
func (t *Table) Scan() Operator              { return nil }
func (t *Table) Named(tag string) []*Tuple   { return t.rows }

type Catalog struct{}

func (c *Catalog) Snapshot() *Snapshot         { return &Snapshot{} }
func (c *Catalog) Confidence(t *Tuple) float64 { return t.Confidence }
func (c *Catalog) ProbOf(v int64) float64      { return 0 }
func (c *Catalog) Version() int64              { return 1 }

type Snapshot struct{}

func (s *Snapshot) Confidence(t *Tuple) float64 { return t.Confidence }
func (s *Snapshot) ProbOf(v int64) float64      { return 0 }
func (s *Snapshot) Version() int64              { return 1 }
func (s *Snapshot) Release()                    {}

type Operator interface{ Next() (*Tuple, bool) }

type Index struct{}

func (ix *Index) Lookup(key int64) []*Tuple { return nil }

func Run(op Operator) []*Tuple            { return nil }
func RunAt(op Operator, v int64) []*Tuple { return nil }
func Plan(c *Catalog, q string) Operator  { return nil }

// unpinnedReads exercises every flagged latest-version convenience.
func unpinnedReads(t *Table, c *Catalog, tu *Tuple) float64 {
	total := 0.0
	for _, row := range t.Rows() { // want `Table.Rows\(\) reads the latest committed version`
		total += row.Confidence
	}
	op := Plan(c, "SELECT *")
	for _, row := range Run(op) { // want `relation.Run drains the operator at the latest committed version`
		total += row.Confidence
	}
	total += c.Confidence(tu) // want `Catalog.Confidence resolves the latest committed version`
	total += c.ProbOf(7)      // want `Catalog.ProbOf resolves the latest committed version`
	return total
}

// pinnedReads is the clean shape: one snapshot covers every read.
func pinnedReads(t *Table, c *Catalog, tu *Tuple) float64 {
	snap := c.Snapshot()
	defer snap.Release()
	total := 0.0
	for _, row := range t.RowsAt(snap) {
		total += row.Confidence
	}
	op := Plan(c, "SELECT *")
	for _, row := range RunAt(op, snap.Version()) {
		total += row.Confidence
	}
	total += snap.Confidence(tu)
	total += snap.ProbOf(7)
	return total
}

// probeJoin is an operator that honours PinVersion for its outer side
// but probes the inner index with Lookup: each outer row, read at the
// pinned version, meets whatever inner rows the newest commit holds.
type probeJoin struct {
	outer Operator
	inner *Index
	pin   int64
	rows  []*Tuple
}

func (j *probeJoin) PinVersion(v int64) { j.pin = v }

func (j *probeJoin) Next() (*Tuple, bool) {
	for len(j.rows) == 0 {
		t, ok := j.outer.Next()
		if !ok {
			return nil, false
		}
		j.rows = j.inner.Lookup(int64(t.Confidence)) // want `Index.Lookup probes the latest committed version`
	}
	t := j.rows[0]
	j.rows = j.rows[1:]
	return t, true
}

// lookalikes must not trip the name-based checks: Rows with arguments,
// Rows on a non-Table type, Lookup on a non-Index type, and Run without
// the Operator signature.
type RowSet struct{}

func (RowSet) Rows() []int { return nil }

func RunJob(name string) {}

type Directory struct{}

func (Directory) Lookup(name string) int { return 0 }

func lookalikes(t *Table, rs RowSet, d Directory) {
	_ = t.Named("x")
	_ = rs.Rows()
	_ = d.Lookup("x")
	RunJob("compact")
}

// allowed documents a deliberate latest-version read.
func allowed(t *Table) int {
	//lint:allow snapdiscipline fixture: admin diagnostics want the newest commit
	return len(t.Rows())
}
