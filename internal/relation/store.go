package relation

import "sync/atomic"

// The record store: a table's cell values, stored once and column by
// column. A record is the cells of one row version that carries values
// — an insert, or an UPDATE that assigns a column; confidence changes
// and tombstones name their predecessor's record. Records are numbered
// in append order and are never rewritten, truncated or reused: record
// r is visible at version v iff its row's slot resolves at v to a live
// version naming r (recView.live), so superseded, deleted and
// rolled-back records simply never resolve. See DESIGN.md §11.

const (
	chunkBits = 10
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

// chunk holds chunkLen consecutive records: the row slot each belongs
// to and, per column, the records' cells as one typed vector.
type chunk struct {
	slots [chunkLen]*versionSlot
	cols  []cells
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

func newChunk(s *Schema) *chunk {
	ch := &chunk{cols: make([]cells, s.Len())}
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

// recView is a reader's capture of a table's record store: every record
// below n is completely written, and none is ever written again, so the
// capture is read without locks while the writer appends.
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

// live resolves record r at version at: its row's slot and the version
// naming r, or a nil version when r is not what the row holds there
// (not yet committed, superseded, deleted or rolled back).
func (v recView) live(r int32, at int64) (*versionSlot, *BaseTuple) {
	ch, k := v.at(r)
	slot := ch.slots[k]
	if b := slot.at(at); b != nil && !b.tombstone && b.rec == r {
		return slot, b
	}
	return slot, nil
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

// addRecord appends vals as a new record of the row in slot, files it
// in every index of the table, and returns its id (writers only).
func (t *Table) addRecord(slot *versionSlot, vals []Value) int32 {
	t.mu.Lock()
	r := t.recs
	if r>>chunkBits == len(t.chunks) {
		t.chunks = append(t.chunks, newChunk(t.schema))
	}
	ch, k := t.chunks[r>>chunkBits], r&chunkMask
	ch.slots[k] = slot
	for c, v := range vals {
		ch.cols[c].set(k, v)
	}
	t.recs++
	indexes := t.indexes
	t.mu.Unlock()
	for _, ix := range indexes {
		ix.add(vals[ix.column].Key(), int32(r))
	}
	return int32(r)
}
