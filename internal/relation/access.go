package relation

import (
	"strings"

	"pcqe/internal/lineage"
)

// access is the one leaf of every plan: a base table read at one
// committed version. It resolves MVCC visibility, narrows to one index
// bucket when an equality conjunct of its filter has a hash index, runs
// the compiled filter on the stored row in place, and only for a row
// that passes materialises the kept columns, the Tuple and its lineage
// variable — a rejected row allocates nothing. Table.Scan returns it
// bare; Filter and Prune push into it; IndexJoin probes through it.
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

	// at is the committed version Open was given to read.
	at    int64
	pred  *rowPred
	slots []*versionSlot
	pos   int
}

// Scan returns a Volcano operator producing the table's rows as derived
// tuples whose lineage is their own variable, as of the committed
// version it is opened at.
func (t *Table) Scan() Operator { return &access{table: t, out: t.schema} }

// Schema implements Operator.
func (a *access) Schema() *Schema { return a.out }

// Open implements Operator.
func (a *access) Open(at int64) error {
	a.at = at
	a.pred = compilePred(a.residual)
	a.seek(a.key)
	return nil
}

// seek puts the cursor before the rows to read: key's bucket with an
// index chosen (IndexJoin re-seeks per outer row), every slot without.
func (a *access) seek(key Value) {
	a.key, a.pos = key, 0
	if a.index != nil {
		a.slots = a.index.candidates(key)
	} else {
		a.slots = a.table.snapshotSlots()
	}
}

// Next implements Operator.
func (a *access) Next() (*Tuple, error) {
	for a.pos < len(a.slots) {
		slot := a.slots[a.pos]
		a.pos++
		var b *BaseTuple
		if a.index != nil {
			b = a.index.at(slot, a.key, a.at)
		} else {
			b = slot.visibleAt(a.at)
		}
		if b == nil {
			continue
		}
		if ok, err := a.pred.holds(b.Values); err != nil {
			return nil, err
		} else if ok {
			vals := b.Values // nothing pruned: share the stored slice
			if a.keep != nil {
				vals = make([]Value, len(a.keep))
				for i, c := range a.keep {
					vals[i] = b.Values[c]
				}
			}
			return &Tuple{Values: vals, Lineage: lineage.NewVar(b.Var)}, nil
		}
	}
	return nil, nil
}

// Close implements Operator.
func (a *access) Close() error { return nil }

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
// leaf the predicate moves into the leaf — run compiled on stored rows,
// and answered from a hash index when its top-level conjunction holds
// an equality between an indexed column and a constant. Anything else
// gets a Select on top.
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

// ProbesIndex reports whether op is a leaf reading one index bucket.
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
