package relation

import (
	"hash/maphash"
	"math"
	"math/bits"
	"slices"

	"pcqe/internal/lineage"
)

// batch is at most chunkLen rows, row-major in vals (w values each),
// one lineage slot per row. It belongs to the operator that returned it
// and is valid until that operator's next call: a consumer that keeps a
// row (a join's build side, a new DISTINCT or GROUP BY group, RunAt)
// copies it.
type batch struct {
	w    int
	vals []Value
	lins []lin
}

// lin is a row's lineage: e, or a base-table row's variable v (v > 0),
// made a lineage.NewVar only where some consumer keeps the row.
type lin struct {
	e *lineage.Expr
	v lineage.Var
}

func (l lin) expr() *lineage.Expr {
	if l.v != 0 {
		return lineage.NewVar(l.v)
	}
	return l.e
}

func (b *batch) len() int { return len(b.lins) }

func (b *batch) row(i int) []Value { return b.vals[i*b.w : (i+1)*b.w : (i+1)*b.w] }

// reset empties b for rows of w values, with room for n of them.
func (b *batch) reset(w, n int) {
	b.w, b.vals, b.lins = w, slices.Grow(b.vals[:0], n*w), slices.Grow(b.lins[:0], n)
}

// release drops buffers past a point lookup's size: a cached plan keeps small ones.
func (b *batch) release() {
	if cap(b.lins) > 64 {
		*b = batch{}
	}
}

// rowStore holds kept rows in blocks of chunkLen, each a batch
// allocated at its full size (the first grows to it by doubling): a
// row is never copied twice, and a block is handed out as it is.
type rowStore struct {
	w      int
	blocks []batch
	n      int
}

func (s *rowStore) row(r int) []Value { return s.blocks[r>>chunkBits].row(r & chunkMask) }

func (s *rowStore) lin(r int) *lin { return &s.blocks[r>>chunkBits].lins[r&chunkMask] }

func (s *rowStore) add(row []Value, l lin) {
	k := len(s.blocks) - 1
	if k < 0 || len(s.blocks[k].lins) == chunkLen {
		s.blocks, k = append(s.blocks, batch{w: s.w}), k+1
	}
	b := &s.blocks[k]
	if len(b.lins) == cap(b.lins) {
		n := chunkLen
		if k == 0 {
			n = min(max(8, 2*len(b.lins)), chunkLen)
		}
		b.vals, b.lins = slices.Grow(b.vals, (n-len(b.lins))*s.w), slices.Grow(b.lins, n-len(b.lins))
	}
	b.vals, b.lins = append(b.vals, row...), append(b.lins, l)
	s.n++
}

func (s *rowStore) addAll(src *batch) error {
	for i := range src.len() {
		s.add(src.row(i), src.lins[i])
	}
	return nil
}

// each opens op at version at, hands every batch it returns to f and
// closes it: the one drain, under RunAt and every blocking operator.
func each(op Operator, at int64, f func(*batch) error) error {
	if err := op.Open(at); err != nil {
		return err
	}
	defer op.Close()
	for {
		b, err := op.next()
		if err != nil || b == nil {
			return err
		}
		if err := f(b); err != nil {
			return err
		}
	}
}

// drain keeps every row of op at version at in dst.
func drain(op Operator, at int64, dst *rowStore) error {
	*dst = rowStore{w: op.Schema().Len()}
	return each(op, at, dst.addAll)
}

// materialized is the output of the operators that build their whole
// result in Open (DISTINCT, set operations, Aggregate, Sort), handed
// out a block at a time. Close drops it.
type materialized struct {
	rows rowStore
	pos  int
}

// Close implements Operator.
func (m *materialized) Close() error { m.rows = rowStore{}; return nil }

func (m *materialized) next() (*batch, error) {
	if m.pos >= len(m.rows.blocks) {
		return nil, nil
	}
	m.pos++
	return &m.rows.blocks[m.pos-1], nil
}

// joinCursor runs a join's next over the left rows: start aims at a row's matches
// (false: none), match appends the next to out, returning its lineage (nil: no more).
type joinCursor struct {
	in     *batch
	err    error // came with in, after its rows
	i      int
	eof    bool
	active bool          // row i may have matches left
	lin    *lineage.Expr // row i's lineage, made at its first match
	out    batch
}

// release drops what the last drain left: the input batch, a row's
// lineage and output past a point lookup's size. A cached plan keeps
// its joins.
func (c *joinCursor) release() {
	c.out.release()
	c.in, c.err, c.lin = nil, nil, nil
}

func (c *joinCursor) run(left Operator, w int, start func([]Value) bool, match func([]Value) (*lineage.Expr, error)) (*batch, error) {
	c.out.reset(w, 0)
	for c.out.len() < chunkLen {
		if !c.active {
			for c.i++; !c.eof && (c.in == nil || c.i >= c.in.len()); c.i = 0 {
				if c.err != nil {
					c.eof = true
				} else if c.in, c.err = left.next(); c.in == nil {
					c.eof = true
				}
			}
			if c.eof {
				if c.out.len() == 0 && c.err == nil {
					return nil, nil
				}
				return &c.out, c.err
			}
			c.active, c.lin = start(c.in.row(c.i)), nil
			continue
		}
		r, err := match(c.in.row(c.i))
		if err != nil {
			return &c.out, err
		}
		if c.active = r != nil; c.active {
			if c.lin == nil {
				c.lin = c.in.lins[c.i].expr()
			}
			c.out.lins = append(c.out.lins, lin{e: lineage.And(c.lin, r)})
		}
	}
	return &c.out, nil
}

// groups merges rows equal value by value under sameValue (no key
// string, so no separator can make two rows collide), in first-seen
// order. Group g keeps its first row and the lineages merged into it,
// whose n-ary node fold builds once: the pairwise fold's formula, in
// linear space. A duplicate costs its lineage alone.
type groups struct {
	rows  rowStore                  // row g is group g's first
	heads map[uint64]int32          // hash → the newest group with it
	next  []int32                   // per group: the next older one with its hash, or -1
	more  map[int32][]*lineage.Expr // a merged group's lineages, its first leading
	seed  maphash.Seed
}

// find returns the number of row's group, or -1, and row's hash.
func (x *groups) find(row []Value) (int32, uint64) {
	if x.heads == nil {
		x.heads, x.more, x.seed = map[uint64]int32{}, map[int32][]*lineage.Expr{}, maphash.MakeSeed()
	}
	var h uint64
	for _, v := range row {
		h = keyHash(h, x.seed, v)
	}
	g, ok := x.heads[h]
	for ; ok && g >= 0; g = x.next[g] {
		if slices.EqualFunc(x.rows.row(int(g)), row, sameValue) {
			return g, h
		}
	}
	return -1, h
}

// add merges row, of lineage l, into its group and returns the group.
func (x *groups) add(row []Value, l lin) int32 {
	g, h := x.find(row)
	if g >= 0 {
		ops, ok := x.more[g]
		if !ok {
			ops = []*lineage.Expr{x.rows.lin(int(g)).expr()}
		}
		x.more[g] = append(ops, l.expr())
		return g
	}
	prev, ok := x.heads[h]
	if !ok {
		prev = -1
	}
	g, x.rows.w = int32(x.rows.n), len(row)
	x.heads[h], x.next = g, append(x.next, prev)
	x.rows.add(row, l)
	return g
}

func (x *groups) addAll(b *batch) error {
	for i := range b.len() {
		x.add(b.row(i), b.lins[i])
	}
	return nil
}

// fold gives every merged group the lineage op(its lineages) and
// returns the groups' rows.
func (x *groups) fold(op func(...*lineage.Expr) *lineage.Expr) *rowStore {
	for g, ops := range x.more {
		*x.rows.lin(int(g)) = lin{e: op(ops...)}
	}
	x.more = nil
	return &x.rows
}

// sameValue is Value.Key's equality — 1 meets 1.0, NULL meets NULL,
// NaN meets NaN — without the strings.
func sameValue(a, b Value) bool {
	a, b = canon(a), canon(b)
	return a == b || a.f != a.f && b.f != b.f
}

// keyHash mixes v into h; values sameValue equates hash alike.
func keyHash(h uint64, seed maphash.Seed, v Value) uint64 {
	if v = canon(v); v.f != v.f {
		v.f = math.NaN()
	}
	x := uint64(v.i) ^ math.Float64bits(v.f) ^ uint64(v.typ)
	if v.typ == TypeString {
		x ^= maphash.String(seed, v.s)
	} else if v.b {
		x = ^x
	}
	return (bits.RotateLeft64(h, 5) ^ x) * 0x9e3779b97f4a7c15
}

// canon is v as Value.Key sees it: an integral REAL is the INTEGER of
// its value. (A Value carries only its own type's payload.)
func canon(v Value) Value {
	if v.typ == TypeFloat && v.f == float64(int64(v.f)) {
		return Int(int64(v.f))
	}
	return v
}
