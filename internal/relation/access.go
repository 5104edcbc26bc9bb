package relation

import "strings"

// access is the one leaf of every plan: a base table read at one
// committed version. It reads records in batches — one chunk of the
// record store, or the part of an index chain in one chunk when an
// equality conjunct of its filter has a hash index — and runs the
// filter's kernels over the batch's selection vector. A survivor's
// visibility is its record's [born, dead) stamps (MVCC), no row version
// is read, and its kept cells and lineage variable are copied into the
// leaf's reused output batch: no record allocates. Table.Scan returns it bare;
// Filter and Prune push into it; IndexJoin probes through it.
type access struct {
	table *Table
	// filter is the whole pushed-down predicate (nil: every row). With
	// an index chosen, key is the probed value and residual what is left
	// to check per row: filter minus that conjunct.
	filter, residual Expr
	index            *Index
	key              Value
	// keep lists the stored columns to materialise (nil keeps all); out
	// is the schema of what is kept.
	keep []int
	out  *Schema

	// at is the committed version Open was given to read, view the
	// record store as of Open. pos is the next record to batch; with an
	// index, r is the next record on the probed key's chain (-1: none),
	// walked by links. A batch of records lies in one chunk: its
	// filter's sel and unsure hold offsets from base, the first record
	// of chunk ch; si and ui are how far survivor has walked them. buf
	// is the batch of survivors next hands out: their kept cells and
	// lineage variables.
	at     int64
	view   recView
	f      leafFilter
	pos    int
	r      int32
	links  []*linkChunk
	base   int32
	ch     *chunk
	si, ui int
	buf    batch
}

// Scan returns the leaf operator producing the table's rows, each with
// its own variable as lineage, as of the committed version it is opened
// at, in record order.
func (t *Table) Scan() Operator { return &access{table: t, out: t.schema} }

// Schema implements Operator.
func (a *access) Schema() *Schema { return a.out }

// Open implements Operator.
func (a *access) Open(at int64) error {
	a.at, a.view = at, a.table.view()
	a.f = compileFilter(a.residual, a.table.schema, a.table.catalog.text)
	a.seek(a.key)
	return nil
}

// seek puts the cursor before the rows to read: key's chain with an
// index chosen (IndexJoin re-seeks per outer row), every record without.
func (a *access) seek(key Value) {
	a.key, a.pos = key, 0
	a.f.sel, a.f.unsure, a.si, a.ui = a.f.sel[:0], a.f.unsure[:0], 0, 0
	if a.index != nil {
		a.r, a.links = a.index.chain(key)
	}
}

// fill reads the next batch into sel and narrows it; false when no
// record is left. Records past the view cannot be visible at a.at: the
// version was committed before Open took the view.
func (a *access) fill() bool {
	f := &a.f
	f.sel, f.unsure, a.si, a.ui = f.sel[:0], f.unsure[:0], 0, 0
	if a.index == nil {
		if a.pos >= a.view.n {
			return false
		}
		lo := a.pos
		a.base, a.pos = int32(lo&^chunkMask), min((lo|chunkMask)+1, a.view.n)
		f.sel = append(f.sel, a.table.catalog.offsets[lo&chunkMask:a.pos-int(a.base)]...)
		a.ch = a.view.chunks[a.base>>chunkBits]
	} else {
		r := a.r
		if r < 0 || int(r) >= a.view.n {
			return false
		}
		a.base = r &^ chunkMask
		for ; r >= 0 && r&^chunkMask == a.base && int(r) < a.view.n; r = next(a.links, r) {
			f.sel = append(f.sel, r&chunkMask)
		}
		a.r, a.ch = r, a.view.chunks[a.base>>chunkBits]
		// A key of another type can share the probed key's hash: keep
		// the records whose cell is the key.
		cc, n := &a.ch.cols[a.index.column], 0
		for _, o := range f.sel {
			if sameValue(cc.get(int(o)), a.key) {
				f.sel[n], n = o, n+1
			}
		}
		f.sel = f.sel[:n]
	}
	f.narrow(a.ch)
	return true
}

func (a *access) next() (*batch, error) {
	a.buf.reset(a.out.Len(), 0)
	for a.buf.len() < chunkLen {
		ch, off, err := a.survivor()
		if ch == nil {
			if a.buf.len() == 0 && err == nil {
				return nil, nil
			}
			return &a.buf, err
		}
		a.buf.vals = a.cells(a.buf.vals, ch, off)
		a.buf.lins = append(a.buf.lins, lin{v: ch.vars[off]})
	}
	return &a.buf, nil
}

// survivor advances to the next record that is live at a.at and passes
// the filter: its chunk and offset (nil at the end). Visibility is the
// record's own stamps. It merges the batch's sure and unsure offsets
// back into record order, so the first error is the first failing row's.
func (a *access) survivor() (*chunk, int32, error) {
	f := &a.f
	for {
		ch := a.ch
		for a.si < len(f.sel) || a.ui < len(f.unsure) {
			var off int32
			sure := a.ui == len(f.unsure) || a.si < len(f.sel) && f.sel[a.si] < f.unsure[a.ui]
			if sure {
				off, a.si = f.sel[a.si], a.si+1
			} else {
				off, a.ui = f.unsure[a.ui], a.ui+1
			}
			if !ch.live(int(off), a.at) {
				continue
			}
			if !sure {
				if ok, err := EvalBool(f.src, f.load(ch, off)); err != nil {
					return nil, 0, err
				} else if !ok {
					continue
				}
			}
			return ch, off, nil
		}
		if !a.fill() {
			return nil, 0, nil
		}
	}
}

func (a *access) cells(dst []Value, ch *chunk, off int32) []Value {
	for i := range a.out.Len() {
		dst = append(dst, ch.cols[a.stored(i)].get(int(off)))
	}
	return dst
}

// stored is the table column the leaf's output column c reads.
func (a *access) stored(c int) int {
	if a.keep != nil {
		return a.keep[c]
	}
	return c
}

// Close implements Operator. A cached plan keeps its leaf: what the
// last execution read goes, and scratch past a point lookup's size.
func (a *access) Close() error {
	a.buf.release()
	a.f.release()
	a.view, a.ch, a.links = recView{}, nil, nil
	return nil
}

// leafOf unwraps op to its access leaf when op is one, bare or under a
// Rename (which only re-qualifies the schema); alias is that Rename's.
func leafOf(op Operator) (leaf *access, alias string) {
	if rn, ok := op.(*Rename); ok {
		op, alias = rn.Input, rn.Alias
	}
	leaf, _ = op.(*access)
	return leaf, alias
}

// pushInto returns op with edit applied to a copy of its leaf, or nil
// when op is not a base-table leaf still reading all its columns (a
// pruned leaf's positions are no longer the stored row's).
func pushInto(op Operator, edit func(a *access)) Operator {
	leaf, alias := leafOf(op)
	if leaf == nil || leaf.keep != nil {
		return nil
	}
	a := *leaf
	edit(&a)
	if alias == "" {
		return &a
	}
	return &Rename{Input: &a, Alias: alias}
}

// Filter restricts op to the rows satisfying pred. Over a base-table
// leaf the predicate moves into the leaf — run as kernels over the
// stored columns, and answered from a hash index when its top-level
// conjunction holds an equality between an indexed column and a
// constant. Anything else gets a Select on top.
func Filter(op Operator, pred Expr) Operator {
	if pushed := pushInto(op, func(a *access) {
		if a.filter != nil {
			pred = &Binary{Op: OpAnd, Left: a.filter, Right: pred}
		}
		a.filter, a.residual, a.index = pred, pred, nil
		conjuncts := splitConjuncts(pred)
		for i, c := range conjuncts {
			if col, key, ok := equalityWithConst(c); ok {
				if ix, has := a.table.IndexOn(col); has {
					a.index, a.key = ix, key
					a.residual = joinConjuncts(append(conjuncts[:i:i], conjuncts[i+1:]...))
					return
				}
			}
		}
	}); pushed != nil {
		return pushed
	}
	return &Select{Input: op, Pred: pred}
}

// Prune projects op onto the columns at the given positions: a leaf
// then materialises only those, any other input gets a ColumnMap.
func Prune(op Operator, keep []int) Operator {
	if pushed := pushInto(op, func(a *access) { a.keep, a.out = keep, a.out.Project(keep) }); pushed != nil {
		return pushed
	}
	return &ColumnMap{Input: op, Indices: keep}
}

// ProbesIndex reports whether op is a leaf walking one index chain.
func ProbesIndex(op Operator) bool {
	leaf, _ := leafOf(op)
	return leaf != nil && leaf.index != nil
}

// describe renders the leaf for Explain: how its rows are reached, then
// the filter and kept columns applied per row.
func (a *access) describe(path string, filter Expr) string {
	if filter != nil {
		path += " filter " + filter.String()
	}
	if a.keep != nil {
		names := make([]string, len(a.keep))
		for i, c := range a.keep {
			names[i] = a.table.schema.Columns[c].Name
		}
		path += " cols [" + strings.Join(names, ", ") + "]"
	}
	return path
}
