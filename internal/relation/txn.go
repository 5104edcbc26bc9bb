package relation

import (
	"fmt"
	"slices"

	"pcqe/internal/conf"
	"pcqe/internal/cost"
	"pcqe/internal/fault"
	"pcqe/internal/lineage"
)

// Txn is a write transaction over the catalog. One transaction writes
// at a time (Begin serializes on the catalog's writer lock); readers
// are never blocked — they resolve version chains against committed
// state only. All mutations inside the transaction stamp provisional
// row versions with the transaction's write sequence, which no snapshot
// can see until Commit atomically publishes it; Rollback unwinds every
// provisional version and leaves the catalog bit-identical to the state
// the transaction began from.
//
// The transaction reads its own writes: predicates and confidence
// lookups inside the transaction resolve at the (unpublished) write
// sequence.
type Txn struct {
	cat      *Catalog
	readSeq  int64
	writeSeq int64

	done   bool
	locked bool

	// rowsChanged marks mutations that can change a cached plan's shape
	// or a materialized subquery (insert/delete/value update); it bumps
	// the plan epoch at commit. confChanged marks confidence mutations;
	// it bumps the confidence epoch and carries the touched variables to
	// the incremental re-evaluation of registered confidence caches.
	rowsChanged bool
	confChanged bool
	confVars    []lineage.Var
	confSeen    map[lineage.Var]struct{}

	// pushed records every chain push, to restore the old head; killed
	// every record stamped dead. Inserts need no undo entry: the records
	// a table gained since its tableDelta opened are the transaction's,
	// and a variable whose insert record is never born resolves to
	// nothing.
	pushed []undoPush
	killed []recRef
	tables []*tableDelta
}

// undoPush reverses one chain push: e's head goes back to old.
type undoPush struct {
	e   *varEntry
	old *BaseTuple
}

// recRef names a record by chunk and offset.
type recRef struct {
	ch *chunk
	k  int
}

// tableDelta accumulates per-table bookkeeping to apply at commit.
// firstRec is the table's record count when the transaction first
// touched it: every record from there on is the transaction's.
type tableDelta struct {
	t        *Table
	firstRec int
	live     int64
	mutated  bool
}

// Begin opens a write transaction. It blocks until any other write
// transaction commits or rolls back; the returned transaction must be
// finished with exactly one Commit or Rollback.
func (c *Catalog) Begin() *Txn {
	c.wmu.Lock()
	seq := c.ver.Load().seq
	return &Txn{cat: c, readSeq: seq, writeSeq: seq + 1, locked: true}
}

// ReadVersion returns the committed version the transaction reads over.
func (x *Txn) ReadVersion() int64 { return x.readSeq }

// release drops the writer lock exactly once.
func (x *Txn) release() {
	if x.locked {
		x.locked = false
		x.cat.wmu.Unlock()
	}
}

func (x *Txn) delta(t *Table) *tableDelta {
	for _, td := range x.tables {
		if td.t == t {
			return td
		}
	}
	td := &tableDelta{t: t, firstRec: t.view().n}
	x.tables = append(x.tables, td)
	return td
}

func (x *Txn) markRows(t *Table) {
	x.rowsChanged = true
	x.delta(t).mutated = true
}

func (x *Txn) markConf(v lineage.Var) {
	x.confChanged = true
	if x.confSeen == nil {
		x.confSeen = map[lineage.Var]struct{}{}
	}
	if _, ok := x.confSeen[v]; ok {
		return
	}
	x.confSeen[v] = struct{}{}
	x.confVars = append(x.confVars, v)
}

// cow pushes a provisional later version nv onto v's chain and
// records the undo. Inside a transaction the head is always the newest
// version (the writer is alone), so nv supersedes the version visible
// at the write sequence; cow and undoAll are the only writers of a
// chain's head.
func (x *Txn) cow(v lineage.Var, nv *BaseTuple) {
	e := x.cat.vars.entry(v)
	old := e.head.Load()
	nv.prev = old
	e.head.Store(nv)
	x.pushed = append(x.pushed, undoPush{e: e, old: old})
}

// kill stamps a record dead at the write sequence and records the undo.
func (x *Txn) kill(ch *chunk, k int) {
	ch.dead[k].Store(x.writeSeq)
	x.killed = append(x.killed, recRef{ch, k})
}

// Insert validates and appends a row to t inside the transaction,
// assigning it a fresh lineage variable, and returns the inserted
// version. The row is invisible to every snapshot until Commit.
func (x *Txn) Insert(t *Table, values []Value, confidence float64, fn cost.Function) (*BaseTuple, error) {
	ch, k, err := x.insert(t, values, confidence, priceOf(fn))
	if err != nil {
		return nil, err
	}
	b := ch.inserted(k)
	return &b, nil
}

// insert is Insert without building the returned version: the inserted
// version is the record's columns, and a loader has no use for a copy.
func (x *Txn) insert(t *Table, values []Value, confidence float64, p price) (*chunk, int, error) {
	if x.done {
		return nil, 0, errTxnFinished
	}
	if err := t.validateRow(values); err != nil {
		return nil, 0, err
	}
	if !conf.Valid(confidence) {
		return nil, 0, fmt.Errorf("relation: confidence %g outside [0,1]", confidence)
	}
	td := x.delta(t)
	v := x.cat.nextVar()
	ch, k := t.addRecord(v, x.writeSeq, values, confidence, p)
	x.cat.vars.insert(v, ch, k)
	td.live++
	td.mutated = true
	x.rowsChanged = true
	return ch, k, nil
}

// MustInsert is Insert that panics on error; it keeps batch-loading
// examples and test fixtures terse while staying inside one
// transaction (one commit for the whole batch, not one per row).
func (x *Txn) MustInsert(t *Table, confidence float64, fn cost.Function, values ...Value) *BaseTuple {
	row, err := x.Insert(t, values, confidence, fn)
	if err != nil {
		panic(err)
	}
	return row
}

// Delete marks the rows of t matching pred deleted by pushing
// tombstone versions and stamping their records dead: scans at and
// after the commit skip them, while their lineage variables keep
// resolving — to confidence 0, reflecting that the fact has been
// withdrawn. An evaluation error aborts the whole operation with no
// partial effect once the caller rolls back.
func (x *Txn) Delete(t *Table, pred Expr) (int, error) {
	if x.done {
		return 0, errTxnFinished
	}
	removed := 0
	view := t.view()
	var img Tuple
	for r := int32(0); int(r) < view.n; r++ {
		ch, k := view.at(r)
		if !ch.live(k, x.writeSeq) {
			continue
		}
		b, _ := x.cat.rowAt(ch.vars[k], x.writeSeq)
		if pred != nil {
			ok, err := EvalBool(pred, predImage(&img, view, &b))
			if err != nil {
				return 0, fmt.Errorf("relation: DELETE predicate: %w", err)
			}
			if !ok {
				continue
			}
		}
		x.cow(b.v, &BaseTuple{v: b.v, table: t, rec: r, created: x.writeSeq, tombstone: true})
		x.kill(ch, k)
		x.delta(t).live--
		x.markRows(t)
		x.markConf(b.v)
		removed++
	}
	return removed, nil
}

// Update applies the assignments to every row of t matching pred via
// copy-on-write versions and returns how many rows matched. A row whose
// columns are assigned gets a new record, filed in the table's indexes
// under its new keys, and its old record dies; a confidence-only
// assignment keeps the record. Value semantics (type coercion,
// confidence bounds) match Insert and SetConfidence; any error aborts
// with no partial effect once the caller rolls back.
func (x *Txn) Update(t *Table, pred Expr, specs []UpdateSpec) (int, error) {
	if x.done {
		return 0, errTxnFinished
	}
	assignsValues := slices.ContainsFunc(specs, func(s UpdateSpec) bool { return s.Column >= 0 })
	x.delta(t)
	changed := 0
	view := t.view()
	var img Tuple
	for r := int32(0); int(r) < view.n; r++ {
		ch, k := view.at(r)
		if !ch.live(k, x.writeSeq) {
			continue
		}
		b, _ := x.cat.rowAt(ch.vars[k], x.writeSeq)
		tuple := predImage(&img, view, &b)
		if pred != nil {
			ok, err := EvalBool(pred, tuple)
			if err != nil {
				return 0, fmt.Errorf("relation: UPDATE predicate: %w", err)
			}
			if !ok {
				continue
			}
		}
		// Evaluate all assignments against the pre-update image first.
		newValues := make([]Value, len(specs))
		for i, spec := range specs {
			v, err := spec.Value.Eval(tuple)
			if err != nil {
				return 0, fmt.Errorf("relation: UPDATE expression: %w", err)
			}
			newValues[i] = v
		}
		vals := append([]Value{}, tuple.Values[:t.schema.Len()]...)
		newConf := b.confidence
		confTouched := false
		for i, spec := range specs {
			v := newValues[i]
			if spec.Column < 0 {
				f, ok := v.AsFloat()
				if !ok {
					return 0, fmt.Errorf("relation: confidence update requires a numeric value, got %s", v.Type())
				}
				if !conf.Valid(f) {
					return 0, fmt.Errorf("relation: confidence %g outside [0,1]", f)
				}
				newConf = f
				confTouched = true
				continue
			}
			if spec.Column >= t.schema.Len() {
				return 0, fmt.Errorf("relation: UPDATE column index %d out of range", spec.Column)
			}
			want := t.schema.Columns[spec.Column].Type
			if !v.IsNull() && v.Type() != want {
				if want == TypeFloat && v.Type() == TypeInt {
					f, _ := v.AsFloat()
					v = Float(f)
				} else {
					return 0, fmt.Errorf("relation: UPDATE column %s expects %s, got %s",
						t.schema.Columns[spec.Column].Name, want, v.Type())
				}
			}
			vals[spec.Column] = v
		}
		nv := &BaseTuple{
			v:          b.v,
			confidence: newConf,
			cost:       b.cost,
			table:      t,
			rec:        r,
			created:    x.writeSeq,
		}
		if assignsValues {
			nch, nk := t.addRecord(b.v, x.writeSeq, vals, 0, price{})
			nv.rec = nch.base + int32(nk)
			x.kill(ch, k)
		}
		x.cow(b.v, nv)
		if confTouched {
			x.markConf(b.v)
		}
		changed++
	}
	if changed > 0 && assignsValues {
		x.markRows(t)
	}
	return changed, nil
}

// SetConfidence updates a base tuple's confidence through a
// copy-on-write version sharing the row's values. Growth toward 1 is
// the normal PCQE path; lowering is allowed for administrative
// correction but never below 0. A deleted row is refused with a
// *DeletedRowError: a withdrawn fact keeps confidence 0.
func (x *Txn) SetConfidence(v lineage.Var, p float64) error {
	if x.done {
		return errTxnFinished
	}
	b, ok := x.cat.rowAt(v, x.writeSeq)
	if !ok {
		return fmt.Errorf("relation: unknown lineage variable %d", int(v))
	}
	if b.tombstone {
		return &DeletedRowError{Var: v}
	}
	if !conf.Valid(p) {
		return fmt.Errorf("relation: confidence %g outside [0,1]", p)
	}
	x.cow(v, &BaseTuple{
		v:          b.v,
		confidence: p,
		cost:       b.cost,
		table:      b.table,
		rec:        b.rec,
		created:    x.writeSeq,
	})
	x.markConf(v)
	return nil
}

// ConfidenceOf resolves a variable's confidence at the transaction's
// write sequence (reading the transaction's own writes).
func (x *Txn) ConfidenceOf(v lineage.Var) (float64, bool) {
	b, ok := x.cat.rowAt(v, x.writeSeq)
	return b.confidence, ok
}

var errTxnFinished = fmt.Errorf("relation: transaction already finished")

// DeletedRowError is SetConfidence's refusal of a variable whose row
// version at the transaction's write sequence is a tombstone.
type DeletedRowError struct {
	Var lineage.Var
}

func (e *DeletedRowError) Error() string {
	return fmt.Sprintf("relation: tuple %d is deleted; its confidence stays 0", int(e.Var))
}

// Commit atomically publishes the transaction: the write sequence
// becomes the new committed version in one atomic step, together with
// the plan/confidence epoch bumps the mutations call for, and
// registered confidence caches advance incrementally over the touched
// variables. A transaction with no pending changes publishes nothing
// and returns the read version. A fault injected at the
// "relation.txn.commit" probe rolls the transaction back and surfaces
// as an error — all-or-nothing either way.
func (x *Txn) Commit() (seq int64, err error) {
	if x.done {
		return 0, errTxnFinished
	}
	defer func() {
		if r := recover(); r != nil {
			seq = 0
			err = fmt.Errorf("relation: transaction commit fault: %v", r)
			if !x.done {
				x.Rollback()
			} else {
				x.release()
			}
		}
	}()
	fault.Probe("relation.txn.commit")
	c := x.cat
	if len(x.pushed) == 0 && !x.rowsChanged && !x.confChanged {
		x.done = true
		x.release()
		return x.readSeq, nil
	}
	for _, td := range x.tables {
		if td.live != 0 {
			td.t.live.Add(td.live)
		}
		if td.mutated {
			td.t.mutations.Add(1)
		}
	}
	// One store publishes the new version and both epochs: a snapshot
	// loads the record whole, so no reader sees a torn triple.
	prev := c.ver.Load()
	next := &version{seq: x.writeSeq, planEpoch: prev.planEpoch, confEpoch: prev.confEpoch}
	if x.rowsChanged {
		next.planEpoch++
	}
	if x.confChanged {
		next.confEpoch++
	}
	c.ver.Store(next)
	x.done = true
	if x.confChanged {
		// Still under the writer lock: registered caches see exactly the
		// committed state and no later one.
		c.advanceCaches(prev.confEpoch, next.confEpoch, x.confVars)
	}
	c.metrics.Load().Counter("relation.txn.commits").Inc()
	x.release()
	return x.writeSeq, nil
}

// Rollback unwinds every provisional version, restores superseded
// chain heads and record stamps, so provisionally inserted rows never
// become visible, to scans or by variable. It is idempotent;
// after a Commit it is a no-op.
func (x *Txn) Rollback() {
	if x.done {
		return
	}
	x.done = true
	defer x.release()
	fault.Probe("relation.txn.rollback")
	x.undoAll()
	x.cat.metrics.Load().Counter("relation.txn.rollbacks").Inc()
}

// undoAll restores every chain the transaction pushed onto and puts
// never back into every stamp it set: the next transaction reuses the
// write sequence, so a stamp left behind would come alive with it. The
// records it appended stay where they are, never visible again: nothing
// is truncated, so no reader's capture can see a cell rewritten.
func (x *Txn) undoAll() {
	for i := len(x.pushed) - 1; i >= 0; i-- {
		u := x.pushed[i]
		u.e.head.Store(u.old)
	}
	for _, r := range x.killed {
		r.ch.dead[r.k].Store(never)
	}
	for _, td := range x.tables {
		td.t.unborn(td.firstRec)
	}
}
