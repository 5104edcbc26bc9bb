package relation

import (
	"cmp"
	"math"
	"slices"
	"strings"
)

// leafFilter is a leaf's filter run over a batch of records in place,
// before any Tuple exists. The top-level AND tree is flattened into
// conjuncts applied in order, each narrowing the selection vector sel:
// `column <op> constant` over an INTEGER, REAL or TEXT column becomes a
// kernel, one loop over the column's vector; any other conjunct is
// evaluated per record with Expr.Eval. A conjunct decides only where
// the tree walk provably agrees — every conjunct so far true and this
// one false is false whatever the tree's shape, all true is true — and
// anything else (a NULL, a non-BOOLEAN, an error) moves the record to
// unsure, for EvalBool over the whole filter to decide, so the leaf
// returns the reference's result and its error text.
//
// A leafFilter serves one operator and one drain at a time.
type leafFilter struct {
	src  Expr
	conj []conjunct
	// sel holds the batch's records (as offsets into their chunk) every
	// conjunct so far passes, unsure those only src can decide; both
	// ascending after narrow.
	sel, unsure []int32
	scratch     Tuple // a record's cells as Expr.Eval sees them
}

// conjunct is one conjunct of a leaf filter: a kernel testing
// `cell op key` on column col, or (col < 0) e evaluated per record. On
// a TEXT column, = and <> test code, key's code in the dictionary (-1,
// which no cell holds, when no cell ever held key).
type conjunct struct {
	e    Expr
	col  int
	op   BinaryOp
	key  Value // of the column's vector type
	code int32
}

// compileFilter compiles e over rows of schema s, whose TEXT cells are
// codes into text; nil passes every row. Compiled in Open, it looks a
// TEXT constant up once: every string a record visible at the version
// opened holds is in the dictionary by then.
func compileFilter(e Expr, s *Schema, text *dict) leafFilter {
	f := leafFilter{src: e}
	if e != nil {
		f.compile(e, s, text)
	}
	return f
}

// compile appends the conjuncts of e's top-level AND tree, in order.
func (f *leafFilter) compile(e Expr, s *Schema, text *dict) {
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		f.compile(b.Left, s, text)
		f.compile(b.Right, s, text)
		return
	}
	k := kernelOf(e, s)
	if k.key.typ == TypeString {
		if code, ok := text.lookup(k.key.s); ok {
			k.code = code
		} else {
			k.code = -1
		}
	}
	f.conj = append(f.conj, k)
}

// release drops the filter's selection vectors past a point lookup's
// size, and the last record's cells.
func (f *leafFilter) release() {
	if cap(f.sel) > 64 || cap(f.unsure) > 64 {
		f.sel, f.unsure = nil, nil
	}
	f.scratch = Tuple{}
}

// kernelOf gives a comparison of a column with a constant (either way
// round) a kernel when the constant compares with the column's cells
// exactly as Compare does: a REAL column against any number, an INTEGER
// column against an integral one below 2^53 in magnitude (so the int64
// comparison is the float64 one), TEXT against TEXT. Anything else is
// evaluated per record.
func kernelOf(e Expr, s *Schema) conjunct {
	per := conjunct{e: e, col: -1}
	b, ok := e.(*Binary)
	if !ok || b.Op > OpGe {
		return per
	}
	op := b.Op
	col, isCol := b.Left.(*ColRef)
	k, isConst := b.Right.(Const)
	if !isCol || !isConst { // `constant op cell` is `cell op' constant`
		col, isCol = b.Right.(*ColRef)
		k, isConst = b.Left.(Const)
		op = [...]BinaryOp{OpEq, OpNe, OpGt, OpGe, OpLt, OpLe}[op]
	}
	if !isCol || !isConst || col.Index < 0 || col.Index >= s.Len() {
		return per
	}
	kf, num := k.Value.AsFloat()
	switch typ := s.Columns[col.Index].Type; {
	case typ == TypeFloat && num && kf == kf:
		return conjunct{e: e, col: col.Index, op: op, key: Float(kf)}
	case typ == TypeInt && num && kf == math.Trunc(kf) && math.Abs(kf) < 1<<53:
		return conjunct{e: e, col: col.Index, op: op, key: Int(int64(kf))}
	case typ == TypeString && k.Value.typ == TypeString:
		return conjunct{e: e, col: col.Index, op: op, key: k.Value}
	}
	return per
}

// narrow runs the conjuncts in order over sel, the batch's offsets in
// chunk ch.
func (f *leafFilter) narrow(ch *chunk) {
	for _, c := range f.conj {
		if c.col < 0 {
			f.evalEach(ch, c.e)
			continue
		}
		cc := &ch.cols[c.col]
		f.splitNulls(cc)
		switch c.key.typ {
		case TypeInt:
			f.sel = keep(f.sel, cc.i, c.op, c.key.i)
		case TypeFloat:
			f.sel = keep(f.sel, cc.f, c.op, c.key.f)
		case TypeString:
			if c.op <= OpNe {
				f.sel = keep(f.sel, cc.codes, c.op, c.code)
			} else {
				f.sel = keepText(f.sel, cc, c.op, c.key.s)
			}
		}
	}
	slices.Sort(f.unsure)
}

// keep narrows sel, in place, to the offsets whose cell x satisfies
// `x op k`, spelled so that a NaN compares equal to everything, as in
// cmpFloat: <> is the negation of `x == k || x != x`, >= of x < k and
// <= of x > k. One loop per test keeps the operator out of the branch;
// =, the hottest, also keeps the negation flag out.
func keep[T cmp.Ordered](sel []int32, cells []T, op BinaryOp, k T) []int32 {
	cells = cells[:chunkLen]
	want, n := op == OpLt || op == OpGt, 0
	switch op {
	case OpEq:
		for _, o := range sel {
			if x := cells[o&chunkMask]; x == k || x != x {
				sel[n], n = o, n+1
			}
		}
	case OpNe:
		for _, o := range sel {
			if x := cells[o&chunkMask]; x != k && x == x {
				sel[n], n = o, n+1
			}
		}
	case OpLt, OpGe:
		for _, o := range sel {
			if (cells[o&chunkMask] < k) == want {
				sel[n], n = o, n+1
			}
		}
	default: // OpGt, OpLe
		for _, o := range sel {
			if (cells[o&chunkMask] > k) == want {
				sel[n], n = o, n+1
			}
		}
	}
	return sel[:n]
}

// keepText is keep for an ordering comparison on a TEXT column, which
// orders the strings, not their codes.
func keepText(sel []int32, c *cells, op BinaryOp, k string) []int32 {
	codes := c.codes[:chunkLen]
	sign, want, n := 1, op == OpLt || op == OpGt, 0
	if op == OpLt || op == OpGe {
		sign = -1
	}
	for _, o := range sel {
		if (strings.Compare(c.text.at(codes[o&chunkMask]), k) == sign) == want {
			sel[n], n = o, n+1
		}
	}
	return sel[:n]
}

// sift narrows sel by a per-record test: an offset it cannot decide
// (sure false) moves to unsure, one it fails is dropped.
func (f *leafFilter) sift(test func(o int32) (pass, sure bool)) {
	f.unsure = slices.Grow(f.unsure, len(f.sel))
	n := 0
	for _, o := range f.sel {
		switch pass, sure := test(o); {
		case !sure:
			f.unsure = append(f.unsure, o)
		case pass:
			f.sel[n], n = o, n+1
		}
	}
	f.sel = f.sel[:n]
}

// splitNulls moves the offsets of sel whose cell in c is NULL to unsure.
func (f *leafFilter) splitNulls(c *cells) {
	var any uint64
	for i := range c.nulls {
		any |= c.nulls[i].Load()
	}
	if any != 0 {
		f.sift(func(o int32) (bool, bool) { return true, !c.null(int(o)) })
	}
}

// evalEach narrows sel by a conjunct without a kernel.
func (f *leafFilter) evalEach(ch *chunk, e Expr) {
	f.sift(func(o int32) (bool, bool) {
		v, err := e.Eval(f.load(ch, o))
		b, ok := v.AsBool()
		return b, err == nil && ok
	})
}

func (f *leafFilter) load(ch *chunk, o int32) *Tuple {
	f.scratch.Values = ch.values(f.scratch.Values[:0], int(o))
	return &f.scratch
}
