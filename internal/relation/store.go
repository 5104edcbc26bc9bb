package relation

import (
	"math"
	"sync/atomic"

	"pcqe/internal/cost"
	"pcqe/internal/lineage"
)

// The record store: a table's cell values, stored once and column by
// column, and each record's place in the version history. A record is
// the cells of one row version that carries values — an insert, or an
// UPDATE that assigns a column; confidence changes and tombstones name
// their predecessor's record. Records are numbered in append order and
// their cells are never rewritten, truncated or reused. What changes is
// a record's visibility interval [born, dead) in commit sequence
// numbers: record r is visible at version v iff born ≤ v < dead
// (chunk.live), so superseded, deleted and rolled-back records drop out
// of every scan without a row version being read. See DESIGN.md §11.

const (
	chunkBits = 10
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

// never is the stamp of a bound not (or no longer) set: a record not yet
// dead, or one whose insert was rolled back.
const never = math.MaxInt64

// chunk holds chunkLen consecutive records of one table, starting at
// record base: per record its row's lineage variable, its visibility
// interval and, for an insert record, the inserted version's confidence
// and cost; per column, the records' cells as one typed vector.
//
// Only writers (under the catalog's wmu) set a stamp. An insert sets
// born to its write sequence; a DELETE, or an UPDATE that writes a new
// record, sets the old record's dead to its write sequence; a rollback
// puts never back into every stamp its transaction set (the next
// transaction reuses the sequence number). The stamps are atomic
// because those writes race readers holding the record in their view.
type chunk struct {
	table *Table
	base  int32

	vars       [chunkLen]lineage.Var
	born, dead [chunkLen]atomic.Int64

	// conf and cost are an insert record's inserted version; a record an
	// UPDATE wrote leaves them zero (its version is a heap BaseTuple).
	conf [chunkLen]float64
	cost [chunkLen]cost.Function

	cols []cells
}

// cells is one column of a chunk: the vector of the column's type
// (INTEGER i, REAL f, TEXT s, BOOLEAN b; the others stay nil) and a NULL
// bitmap. The bitmap's words are atomic because one word spans 64
// records: a reader loads it while the writer sets a later record's bit.
type cells struct {
	typ   Type
	nulls [chunkLen / 64]atomic.Uint64
	i     []int64
	f     []float64
	s     []string
	b     []bool
}

func newChunk(t *Table, base int32) *chunk {
	s := t.schema
	ch := &chunk{table: t, base: base, cols: make([]cells, s.Len())}
	for c, col := range s.Columns {
		cc := &ch.cols[c]
		cc.typ = col.Type
		switch col.Type {
		case TypeInt:
			cc.i = make([]int64, chunkLen)
		case TypeFloat:
			cc.f = make([]float64, chunkLen)
		case TypeString:
			cc.s = make([]string, chunkLen)
		case TypeBool:
			cc.b = make([]bool, chunkLen)
		}
	}
	return ch
}

// set stores v, NULL or of the column's type, as the cell at offset k
// (the writer only, before the record is counted).
func (c *cells) set(k int, v Value) {
	switch v.typ {
	case TypeNull:
		w := &c.nulls[k>>6]
		w.Store(w.Load() | 1<<(k&63))
	case TypeInt:
		c.i[k] = v.i
	case TypeFloat:
		c.f[k] = v.f
	case TypeString:
		c.s[k] = v.s
	case TypeBool:
		c.b[k] = v.b
	}
}

func (c *cells) null(k int) bool { return c.nulls[k>>6].Load()&(1<<(k&63)) != 0 }

// get returns the cell at offset k.
func (c *cells) get(k int) Value {
	if c.null(k) {
		return Null()
	}
	switch c.typ {
	case TypeInt:
		return Int(c.i[k])
	case TypeFloat:
		return Float(c.f[k])
	case TypeString:
		return String_(c.s[k])
	case TypeBool:
		return Bool(c.b[k])
	}
	return Null()
}

// live reports whether the record at offset k is visible at version at.
func (ch *chunk) live(k int, at int64) bool {
	return ch.born[k].Load() <= at && at < ch.dead[k].Load()
}

// inserted returns the row version the insert record at offset k holds.
func (ch *chunk) inserted(k int) BaseTuple {
	return BaseTuple{
		v:          ch.vars[k],
		confidence: ch.conf[k],
		cost:       ch.cost[k],
		table:      ch.table,
		rec:        ch.base + int32(k),
		created:    ch.born[k].Load(),
	}
}

// recView is a reader's capture of a table's record store: every record
// below n is completely written, and its cells are never written again,
// so the capture is read without locks while the writer appends.
type recView struct {
	chunks []*chunk
	n      int
}

func (t *Table) view() recView {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return recView{t.chunks, t.recs}
}

func (v recView) at(r int32) (*chunk, int) { return v.chunks[r>>chunkBits], int(r & chunkMask) }

// live reports whether record r is visible at version at.
func (v recView) live(r int32, at int64) bool {
	ch, k := v.at(r)
	return ch.live(k, at)
}

func (v recView) values(dst []Value, r int32) []Value {
	return v.chunks[r>>chunkBits].values(dst, int(r&chunkMask))
}

func (ch *chunk) values(dst []Value, k int) []Value {
	for c := range ch.cols {
		dst = append(dst, ch.cols[c].get(k))
	}
	return dst
}

// addRecord appends vals as a new record of v's row, born at seq, files
// it in every index of the table, and returns its chunk and offset
// (writers only). An insert record also holds the inserted version's
// confidence and cost; an UPDATE's passes zero for both.
func (t *Table) addRecord(v lineage.Var, seq int64, vals []Value, conf float64, fn cost.Function) (*chunk, int) {
	t.mu.Lock()
	r := t.recs
	if r>>chunkBits == len(t.chunks) {
		t.chunks = append(t.chunks, newChunk(t, int32(r)))
	}
	ch, k := t.chunks[r>>chunkBits], r&chunkMask
	ch.vars[k], ch.conf[k], ch.cost[k] = v, conf, fn
	ch.born[k].Store(seq)
	ch.dead[k].Store(never)
	for c, val := range vals {
		ch.cols[c].set(k, val)
	}
	t.recs++
	indexes := t.indexes
	t.mu.Unlock()
	for _, ix := range indexes {
		ix.add(vals[ix.column].Key(), int32(r))
	}
	return ch, k
}

// unborn rolls back every record appended since record from: none of
// them is ever visible again (writers only).
func (t *Table) unborn(from int) {
	v := t.view()
	for r := int32(from); int(r) < v.n; r++ {
		ch, k := v.at(r)
		ch.born[k].Store(never)
	}
}
