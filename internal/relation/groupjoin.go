package relation

import (
	"pcqe/internal/conf"
	"pcqe/internal/lineage"
)

// GroupJoin runs Project — DISTINCT column references into one input
// (the kept side) of a HashJoin on one INTEGER or TEXT column pair of
// two base-table leaves, maybe through a ColumnMap — as one pass over
// the leaves, returning exactly its rows, order and lineage. It keys
// both leaves by the join column's stored word (the INTEGER, or the
// TEXT cell's dictionary code) and emits one row per matched kept
// record, decoding only its projected cells. A kept record s with one
// match o gets the join's And(o, s); with several, the OR of those
// joined rows is built as what lineage.OrFactored folds it to, s ∧ (o₁
// ∨ … ∨ oₖ). Kept records with equal projected values merge as Project
// merges them. Over two tables no variable repeats, so an unmerged
// row's formula is read-once, and the operator prices it from the
// confidences read when it visited the records, in probReadOnce's
// order of operations: bit-equal to lineage.Prob (Tuple.Priced).
type GroupJoin struct {
	Project *Project // GroupJoinOf builds the operator from it

	join   *HashJoin
	leaf   [2]*access // side 0 is the join's Right (built), 1 its Left (probing)
	key    [2]int     // each leaf's stored key column
	kept   int        // the side the output columns come from
	cols   []int      // the kept leaf's stored columns, in output order
	priced bool       // the leaves are different tables (and wideVar)

	materialized
}

// gjRec is a visited record: its row's variable and confidence, its
// number, its key and the next record of its side with it (-1: none).
type gjRec struct {
	v              lineage.Var
	p              float64
	rec, key, next int32
}

// gjKey is one join key's first and last record on each side (-1:
// none; 0 is the build side) and, made at its first use, the other
// side's part of a kept record's lineage, and its confidence.
type gjKey struct {
	first, last [2]int32
	other       *lineage.Expr
	p           float64
}

// GroupJoinOf returns p run as a GroupJoin when p has the shape the
// operator answers for, p itself otherwise.
func GroupJoinOf(p *Project) Operator {
	in := p.Input
	cm, _ := in.(*ColumnMap)
	if cm != nil {
		in = cm.Input
	}
	hj, _ := in.(*HashJoin)
	if !p.Distinct || len(p.Exprs) == 0 || hj == nil || len(hj.LeftKeys) != 1 || len(hj.RightKeys) != 1 {
		return p
	}
	g := &GroupJoin{Project: p, join: hj}
	var typ [2]Type
	for s, in := range [2]Operator{hj.Right, hj.Left} {
		key := [2]int{hj.RightKeys[0], hj.LeftKeys[0]}[s]
		if g.leaf[s], _ = leafOf(in); g.leaf[s] == nil || key < 0 || key >= g.leaf[s].out.Len() {
			return p
		}
		g.key[s], typ[s] = g.leaf[s].stored(key), g.leaf[s].out.Columns[key].Type
	}
	if typ[0] != typ[1] || typ[0] != TypeInt && typ[0] != TypeString || g.leaf[0].table.catalog != g.leaf[1].table.catalog {
		return p
	}
	g.priced = g.leaf[0].table != g.leaf[1].table && wideVar
	nl := hj.Left.Schema().Len()
	for i, e := range p.Exprs {
		cr, ok := e.(*ColRef)
		if !ok || cr.Index < 0 || cr.Index >= p.Input.Schema().Len() {
			return p
		}
		s, c := 1, cr.Index
		if cm != nil {
			c = cm.Indices[c]
		}
		if c >= nl {
			s, c = 0, c-nl
		}
		if i > 0 && s != g.kept {
			return p
		}
		g.kept, g.cols = s, append(g.cols, g.leaf[s].stored(c))
	}
	return g
}

// Schema implements Operator.
func (g *GroupJoin) Schema() *Schema { return g.Project.Schema() }

// Open implements Operator. It reads the build side, then the probe
// side, as HashJoin does (so the first error is the same row's).
func (g *GroupJoin) Open(at int64) error {
	g.rows, g.pos = rowStore{}, 0
	ix := map[int64]int32{} // stored word → key number
	var keys []gjKey
	var recs [2][]gjRec // build side, probe side
	var views [2]recView
	var order []int32 // keys in the order the probe side first meets them
	prob := pinnedAssign{cat: g.leaf[0].table.catalog, seq: at}
	add := func(side int, k int32, ch *chunk, off int32) {
		r, key := int32(len(recs[side])), &keys[k]
		rec := gjRec{v: ch.vars[off], rec: ch.base + off, key: k, next: -1}
		if g.priced {
			rec.p = conf.Clamp(prob.ProbOf(rec.v))
		}
		if key.first[side] < 0 {
			key.first[side] = r
		} else {
			recs[side][key.last[side]].next = r
		}
		key.last[side], recs[side] = r, append(recs[side], rec)
	}
	var err error
	views[0], err = g.scan(0, at, func(ch *chunk, off int32, word int64) {
		k, ok := ix[word]
		if !ok {
			k, keys = int32(len(keys)), append(keys, gjKey{first: [2]int32{-1, -1}})
			ix[word] = k
		}
		add(0, k, ch, off)
	})
	if err != nil {
		return err
	}
	views[1], err = g.scan(1, at, func(ch *chunk, off int32, word int64) {
		if k, ok := ix[word]; ok {
			if keys[k].first[1] < 0 {
				order = append(order, k)
			}
			add(1, k, ch, off)
		}
	})
	if err != nil {
		return err
	}

	kept := g.kept
	var vs []*lineage.Expr // scratch: Or copies its operands
	var ps []float64
	var d groups
	grp := make([]int32, len(recs[kept])) // each emitted record's group
	row := make([]Value, len(g.cols))
	emit := func(r int32) {
		rec := &recs[kept][r]
		ch, off := views[kept].at(rec.rec)
		for i, c := range g.cols {
			row[i] = ch.cols[c].get(off)
		}
		key := &keys[rec.key]
		if key.other == nil { // the other side's variables, in its order
			vs, ps = vs[:0], ps[:0]
			for o := key.first[1-kept]; o >= 0; o = recs[1-kept][o].next {
				vs, ps = append(vs, lineage.NewVar(recs[1-kept][o].v)), append(ps, recs[1-kept][o].p)
			}
			key.other, key.p = vs[0], ps[0]
			if len(vs) > 1 {
				key.other, key.p = lineage.Or(vs...), disjoin(ps)
			}
		}
		s := lineage.NewVar(rec.v)
		e, p := lineage.And(s, key.other), conjoin(rec.p, key.p)
		if kept == 0 && key.first[1] == key.last[1] { // the join's And(o, s)
			e, p = lineage.And(key.other, s), conjoin(key.p, rec.p)
		}
		l := lin{e: e}
		if g.priced {
			l = pricedLin(e, p)
		}
		grp[r] = d.add(row, l)
	}
	if kept == 1 {
		for r := range recs[1] {
			emit(int32(r))
		}
	} else {
		for _, k := range order {
			for r := keys[k].first[0]; r >= 0; r = recs[0][r].next {
				emit(r)
			}
		}
	}

	// A group of several kept records gets Project's lineage, unpriced:
	// OrFactored over its joined rows, in the join's order.
	ops := map[int32][]*lineage.Expr{}
	for p := int32(0); len(d.more) > 0 && int(p) < len(recs[1]); p++ {
		for b := keys[recs[1][p].key].first[0]; b >= 0; b = recs[0][b].next {
			if m := grp[[2]int32{b, p}[kept]]; d.more[m] != nil {
				ops[m] = append(ops[m], lineage.And(lineage.NewVar(recs[1][p].v), lineage.NewVar(recs[0][b].v)))
			}
		}
	}
	for m, es := range ops {
		*d.rows.lin(int(m)) = lin{e: lineage.OrFactored(es...)}
	}
	d.more, g.rows = nil, d.rows
	return nil
}

// scan drains the side's leaf at version at, handing f each survivor
// with a key and the key's stored word; it returns the leaf's view.
func (g *GroupJoin) scan(s int, at int64, f func(ch *chunk, off int32, word int64)) (recView, error) {
	a := g.leaf[s]
	if err := a.Open(at); err != nil {
		return recView{}, err
	}
	defer a.Close()
	view := a.view
	for {
		ch, off, err := a.survivor()
		if ch == nil {
			return view, err
		}
		if c := &ch.cols[g.key[s]]; c.null(int(off)) {
			continue
		} else if c.typ == TypeString {
			f(ch, off, int64(c.codes[off]))
		} else {
			f(ch, off, c.i[off])
		}
	}
}

// conjoin is probReadOnce's conjunction of two children of confidences
// x and y, operation for operation: bit-equal to it.
func conjoin(x, y float64) float64 {
	p := 1.0
	for _, c := range [2]float64{x, y} {
		p *= c
		//lint:allow confrange probReadOnce's exact absorbing-zero
		// short-circuit, kept so the result is bit-equal to it.
		if p == 0 {
			return 0
		}
	}
	return p
}

// disjoin is probReadOnce's disjunction of children of confidences ps,
// operation for operation: bit-equal to it.
func disjoin(ps []float64) float64 {
	q := 1.0
	for _, p := range ps {
		q *= 1 - p
		//lint:allow confrange probReadOnce's exact absorbing-zero
		// short-circuit, kept so the result is bit-equal to it.
		if q == 0 {
			return 1
		}
	}
	return 1 - q
}
