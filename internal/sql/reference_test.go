package sql_test

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"pcqe/internal/lineage"
	"pcqe/internal/relation"
	"pcqe/internal/sql"
)

// This file is the planner differential's oracle: a SELECT evaluator
// written against the parsed AST. It shares nothing with the planner —
// not its expression lowering, select list, aggregation, subquery
// materialization or join search, and no operator, index, cache or
// estimate of package relation. It reads base rows through the catalog's
// snapshot API, evaluates every expression itself under SQL's
// three-valued logic, joins by nested loops (after the one fixed rule:
// a WHERE conjunct that reads a single relation filters that relation
// first) and builds each row's lineage with lineage.And/Or/Not by the
// rules DESIGN.md §10 states for the engine:
//
//   - a selection keeps the row's lineage;
//   - a join takes the ∧ of its inputs;
//   - DISTINCT and UNION take the ∨ of equal rows (equality is
//     Value.Key's, so NULL meets NULL);
//   - INTERSECT gives ℓ ∧ (∨ matching right);
//   - EXCEPT gives ℓ ∧ ¬(∨ matching right) and keeps every left row;
//   - a GROUP BY group is the ∧ of its members;
//   - an IN-subquery is materialized and adds no lineage;
//   - _confidence is the confidence of the lineage after the FROM/JOIN
//     block.
//
// Where the engine defines a behaviour SQL leaves open — LIKE folds
// case, division by zero is NULL, the names of unaliased output
// columns, which clauses may hold an IN-subquery — the reference
// implements the engine's definition, written out again here.

// reference evaluates SELECT statements at one snapshot of a catalog.
type reference struct {
	cat  *relation.Catalog
	snap *relation.Snapshot
	// exact computes _confidence by lineage.ProbBruteForce (the small
	// generated instances) instead of lineage.Prob (the fixtures).
	exact bool
	// probs holds the confidence of every row the reference has read.
	probs lineage.MapAssignment
	// sets holds each IN-subquery's values, materialized once.
	sets  map[*sql.InExpr][]relation.Value
	likes map[string]*regexp.Regexp
}

func newReference(snap *relation.Snapshot, exact bool) *reference {
	return &reference{
		cat: snap.Catalog(), snap: snap, exact: exact,
		probs: lineage.MapAssignment{},
		sets:  map[*sql.InExpr][]relation.Value{},
		likes: map[string]*regexp.Regexp{},
	}
}

// column is one column of a result: its qualifier (a table name or
// alias, empty for a computed column), name and static type.
type column struct {
	table, name string
	typ         relation.Type
}

type row struct {
	vals []relation.Value
	lin  *lineage.Expr
}

// result is a bag of rows over columns.
type result struct {
	cols []column
	rows []row
}

// query parses and evaluates one SELECT statement.
func (r *reference) query(q string) (*result, error) {
	stmt, err := sql.Parse(q)
	if err != nil {
		return nil, err
	}
	return r.stmt(stmt)
}

// confidence is a lineage formula's probability under the confidences
// of the rows read, clamped to [0, 1].
func (r *reference) confidence(e *lineage.Expr) (float64, error) {
	p := 0.0
	if r.exact {
		var err error
		if p, err = lineage.ProbBruteForce(e, r.probs); err != nil {
			return 0, err
		}
	} else {
		p = lineage.Prob(e, r.probs)
	}
	return math.Min(1, math.Max(0, p)), nil
}

// stmt evaluates a possibly compound statement; set operations
// associate to the left.
func (r *reference) stmt(s *sql.SelectStmt) (*result, error) {
	out, err := r.block(s)
	if err != nil {
		return nil, err
	}
	for b := s; b.SetOp != sql.SetNone; b = b.Next {
		right, err := r.block(b.Next)
		if err != nil {
			return nil, err
		}
		if len(out.cols) != len(right.cols) {
			return nil, fmt.Errorf("set operation over %d and %d columns", len(out.cols), len(right.cols))
		}
		for i := range out.cols {
			if out.cols[i].typ != right.cols[i].typ {
				return nil, fmt.Errorf("set operation column %d: %s vs %s", i+1, out.cols[i].typ, right.cols[i].typ)
			}
		}
		both := append(append([]row{}, out.rows...), right.rows...)
		switch b.SetOp {
		case sql.SetUnionAll:
			out = &result{out.cols, both}
		case sql.SetUnion:
			out = &result{out.cols, distinct(both)}
		default:
			matches := map[string]*lineage.Expr{}
			for _, m := range distinct(right.rows) {
				matches[rowKey(m.vals)] = m.lin
			}
			var rows []row
			for _, l := range distinct(out.rows) {
				m, ok := matches[rowKey(l.vals)]
				switch {
				case ok && b.SetOp == sql.SetIntersect:
					rows = append(rows, row{l.vals, lineage.And(l.lin, m)})
				case ok:
					rows = append(rows, row{l.vals, lineage.And(l.lin, lineage.Not(m))})
				case b.SetOp == sql.SetExcept:
					rows = append(rows, l)
				}
			}
			out = &result{out.cols, rows}
		}
	}
	return out, nil
}

// block evaluates one select block: FROM and WHERE by nested loops,
// then grouping or the select list, ORDER BY and LIMIT.
func (r *reference) block(s *sql.SelectStmt) (*result, error) {
	refs := []sql.TableRef{s.From}
	conds := conjuncts(s.Where)
	where := len(conds) // conds[:where] are WHERE's, the rest ON's
	for _, j := range s.Joins {
		refs = append(refs, j.Table)
		conds = append(conds, conjuncts(j.On)...)
	}
	rels := make([]*result, len(refs))
	offset := make([]int, len(refs)+1)
	var cols []column
	for i, tr := range refs {
		rel, err := r.from(tr)
		if err != nil {
			return nil, err
		}
		rels[i], offset[i+1] = rel, offset[i]+len(rel.cols)
		cols = append(cols, rel.cols...)
	}
	confAt := -1
	if blockReadsConfidence(s) {
		confAt = len(cols)
		cols = append(cols, column{name: "_confidence", typ: relation.TypeFloat})
	}
	in := newScope(cols)

	// Sort the conditions: a WHERE conjunct reading one relation only
	// filters that relation before the loop, a conjunct reading
	// _confidence waits for it, the rest test every combination.
	pre := make([][]sql.ExprNode, len(rels))
	var post, confConds []sql.ExprNode
	for i, c := range conds {
		if _, err := r.check(c, in, mode{subqueries: true}); err != nil {
			return nil, err
		}
		owner, conf := -1, false
		for _, id := range idents(c) {
			at, _ := in.resolve(id)
			rel := sort.SearchInts(offset[1:], at+1)
			switch {
			case at == confAt:
				conf = true
			case owner == -1 || owner == rel:
				owner = rel
			default:
				owner = len(rels) // more than one relation
			}
		}
		switch {
		case conf:
			confConds = append(confConds, c)
		case i < where && owner >= 0 && owner < len(rels):
			pre[owner] = append(pre[owner], c)
		default:
			post = append(post, c)
		}
	}

	// Each relation's rows pass its own conjuncts over a full-width row
	// whose other cells stay NULL (the conjuncts read none of them).
	buf := make([]relation.Value, len(cols))
	en := &env{sc: in, vals: buf}
	for i, rel := range rels {
		var kept []row
		for _, rw := range rel.rows {
			copy(buf[offset[i]:], rw.vals)
			ok, err := r.holds(pre[i], en)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, rw)
			}
		}
		rels[i] = &result{rel.cols, kept}
		clear(buf[offset[i]:offset[i+1]])
	}

	var joined []row
	lins := make([]*lineage.Expr, len(rels))
	var loop func(i int) error
	loop = func(i int) error {
		if i == len(rels) {
			ok, err := r.holds(post, en)
			if ok {
				joined = append(joined, row{append([]relation.Value{}, buf...), lineage.And(lins...)})
			}
			return err
		}
		for _, rw := range rels[i].rows {
			copy(buf[offset[i]:], rw.vals)
			lins[i] = rw.lin
			if err := loop(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := loop(0); err != nil {
		return nil, err
	}
	if confAt >= 0 {
		kept := joined[:0]
		for _, rw := range joined {
			p, err := r.confidence(rw.lin)
			if err != nil {
				return nil, err
			}
			rw.vals[confAt] = relation.Float(p)
			ok, err := r.holds(confConds, &env{sc: in, vals: rw.vals})
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, rw)
			}
		}
		joined = kept
	}

	var out *result
	var err error
	if aggregates(s) {
		out, err = r.group(s, in, joined)
	} else {
		out, err = r.project(s, in, joined)
	}
	if err != nil {
		return nil, err
	}
	if s.Offset > 0 {
		out.rows = out.rows[min(s.Offset, len(out.rows)):]
	}
	if s.Limit >= 0 && s.Limit < len(out.rows) {
		out.rows = out.rows[:s.Limit]
	}
	return out, nil
}

// from reads one FROM entry: a base table's rows at the snapshot, each
// its own variable, or a derived table's result under its alias.
func (r *reference) from(tr sql.TableRef) (*result, error) {
	if tr.Sub != nil {
		sub, err := r.stmt(tr.Sub)
		if err != nil {
			return nil, err
		}
		cols := make([]column, len(sub.cols))
		for i, c := range sub.cols {
			cols[i] = column{tr.Alias, c.name, c.typ}
		}
		return &result{cols, sub.rows}, nil
	}
	tab, err := r.cat.Table(tr.Name)
	if err != nil {
		return nil, err
	}
	qualifier := tab.Name
	if tr.Alias != "" {
		qualifier = tr.Alias
	}
	var out result
	for _, c := range tab.Schema().Columns {
		out.cols = append(out.cols, column{qualifier, c.Name, c.Type})
	}
	for _, b := range tab.RowsAt(r.snap) {
		r.probs[b.Var()] = b.Confidence()
		out.rows = append(out.rows, row{b.Values(), lineage.NewVar(b.Var())})
	}
	return &out, nil
}

// project evaluates a block without aggregation: the select list per
// row, DISTINCT, and ORDER BY over the output columns or, failing
// that, over the input rows before the select list.
func (r *reference) project(s *sql.SelectStmt, in *scope, rows []row) (*result, error) {
	var cols []column
	for _, it := range s.Items {
		if it.Star {
			for _, c := range in.cols {
				cols = append(cols, column{name: c.name, typ: c.typ})
			}
			continue
		}
		typ, err := r.check(it.Expr, in, mode{})
		if err != nil {
			return nil, err
		}
		// Unaliased, a column keeps its name and an expression is named
		// by its rendering.
		name := it.Alias
		if id, ok := it.Expr.(*sql.Ident); ok && name == "" {
			name = in.cols[in.bound[id]].name
		}
		if name == "" {
			name = render(it.Expr, in)
		}
		cols = append(cols, column{name: name, typ: typ})
	}
	selectList := func(rows []row) ([]row, error) {
		out := make([]row, len(rows))
		for i, rw := range rows {
			en := &env{sc: in, vals: rw.vals}
			out[i].lin = rw.lin
			for _, it := range s.Items {
				if it.Star {
					out[i].vals = append(out[i].vals, rw.vals...)
					continue
				}
				v, err := r.eval(it.Expr, en)
				if err != nil {
					return nil, err
				}
				out[i].vals = append(out[i].vals, v)
			}
		}
		if s.Distinct {
			out = distinct(out)
		}
		return out, nil
	}
	out, err := selectList(rows)
	if err != nil {
		return nil, err
	}
	res := &result{cols, out}
	if len(s.OrderBy) == 0 {
		return res, nil
	}
	outScope := newScope(cols)
	errOut := r.checkAll(s.OrderBy, outScope)
	if errOut == nil {
		res.rows, err = r.sortRows(out, s.OrderBy, outScope)
		return res, err
	}
	if r.checkAll(s.OrderBy, in) != nil {
		return nil, errOut
	}
	if rows, err = r.sortRows(rows, s.OrderBy, in); err != nil {
		return nil, err
	}
	res.rows, err = selectList(rows)
	return res, err
}

// group evaluates an aggregating block: the GROUP BY groups in
// first-seen order (one group over no rows when there is no GROUP BY),
// each row the ∧ of its members, then HAVING, the select list,
// DISTINCT and ORDER BY over the output columns.
func (r *reference) group(s *sql.SelectStmt, in *scope, rows []row) (*result, error) {
	for _, g := range s.GroupBy {
		if _, err := r.check(g, in, mode{}); err != nil {
			return nil, err
		}
	}
	m := mode{group: &grouping{by: s.GroupBy, in: in}}
	cols := make([]column, len(s.Items))
	var calls []*sql.FuncCall
	for i, it := range s.Items {
		if it.Star {
			return nil, fmt.Errorf("SELECT * in an aggregating block")
		}
		typ, err := r.check(it.Expr, in, m)
		if err != nil {
			return nil, err
		}
		name := it.Alias
		if name == "" {
			switch n := it.Expr.(type) {
			case *sql.Ident:
				name = n.Name
			case *sql.FuncCall:
				name = strings.ToLower(n.SQL())
			default:
				name = n.SQL()
			}
		}
		cols[i] = column{name: name, typ: typ}
		calls = append(calls, aggCalls(it.Expr)...)
	}
	if s.Having != nil {
		if _, err := r.check(s.Having, in, m); err != nil {
			return nil, err
		}
		calls = append(calls, aggCalls(s.Having)...)
	}

	type group struct {
		key     []relation.Value
		members []row
	}
	var groups []*group
	index := map[string]*group{}
	for _, rw := range rows {
		en := &env{sc: in, vals: rw.vals}
		key := make([]relation.Value, len(s.GroupBy))
		for i, g := range s.GroupBy {
			v, err := r.eval(g, en)
			if err != nil {
				return nil, err
			}
			key[i] = v
		}
		g := index[rowKey(key)]
		if g == nil {
			g = &group{key: key}
			index[rowKey(key)] = g
			groups = append(groups, g)
		}
		g.members = append(g.members, rw)
	}
	if len(s.GroupBy) == 0 && len(groups) == 0 {
		groups = append(groups, &group{})
	}

	var out []row
	for _, g := range groups {
		en := &env{sc: in, group: &groupEnv{key: g.key, by: s.GroupBy, aggs: map[*sql.FuncCall]relation.Value{}}}
		lins := make([]*lineage.Expr, len(g.members))
		for i, m := range g.members {
			lins[i] = m.lin
		}
		for _, fc := range calls {
			v, err := r.aggregate(fc, in, g.members)
			if err != nil {
				return nil, err
			}
			en.group.aggs[fc] = v
		}
		if s.Having != nil {
			ok, err := r.holds([]sql.ExprNode{s.Having}, en)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		rw := row{lin: lineage.And(lins...)}
		for _, it := range s.Items {
			v, err := r.eval(it.Expr, en)
			if err != nil {
				return nil, err
			}
			rw.vals = append(rw.vals, v)
		}
		out = append(out, rw)
	}
	if s.Distinct {
		out = distinct(out)
	}
	res := &result{cols, out}
	if len(s.OrderBy) > 0 {
		outScope := newScope(cols)
		if err := r.checkAll(s.OrderBy, outScope); err != nil {
			return nil, err
		}
		var err error
		if res.rows, err = r.sortRows(out, s.OrderBy, outScope); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// aggregate computes one aggregate call over a group's members; SQL's
// aggregates skip NULLs, and SUM stays INTEGER over INTEGER values.
func (r *reference) aggregate(fc *sql.FuncCall, in *scope, members []row) (relation.Value, error) {
	if fc.Star {
		return relation.Int(int64(len(members))), nil
	}
	var n, isum int64
	var fsum float64
	ints := true
	var lo, hi relation.Value
	for _, m := range members {
		v, err := r.eval(fc.Arg, &env{sc: in, vals: m.vals})
		if err != nil {
			return relation.Value{}, err
		}
		if v.IsNull() {
			continue
		}
		n++
		switch fc.Name {
		case "SUM", "AVG":
			f, ok := v.AsFloat()
			if !ok {
				return relation.Value{}, fmt.Errorf("%s over %s", fc.Name, v.Type())
			}
			i, _ := v.AsInt()
			ints = ints && v.Type() == relation.TypeInt
			fsum, isum = fsum+f, isum+i
		case "MIN", "MAX":
			if n == 1 {
				lo, hi = v, v
				continue
			}
			cl, err := relation.Compare(v, lo)
			if err != nil {
				return relation.Value{}, err
			}
			ch, err := relation.Compare(v, hi)
			if err != nil {
				return relation.Value{}, err
			}
			if cl < 0 {
				lo = v
			}
			if ch > 0 {
				hi = v
			}
		}
	}
	switch {
	case fc.Name == "COUNT":
		return relation.Int(n), nil
	case n == 0:
		return relation.Null(), nil
	case fc.Name == "SUM" && ints:
		return relation.Int(isum), nil
	case fc.Name == "SUM":
		return relation.Float(fsum), nil
	case fc.Name == "AVG":
		return relation.Float(fsum / float64(n)), nil
	case fc.Name == "MIN":
		return lo, nil
	}
	return hi, nil
}

// sortRows orders rows stably by the ORDER BY keys evaluated over sc:
// NULL first, DESC reversing the order.
func (r *reference) sortRows(rows []row, order []sql.OrderItem, sc *scope) ([]row, error) {
	keys := make([][]relation.Value, len(rows))
	for i, rw := range rows {
		en := &env{sc: sc, vals: rw.vals}
		for _, o := range order {
			v, err := r.eval(o.Expr, en)
			if err != nil {
				return nil, err
			}
			keys[i] = append(keys[i], v)
		}
	}
	perm := make([]int, len(rows))
	for i := range perm {
		perm[i] = i
	}
	var cmpErr error
	sort.SliceStable(perm, func(a, b int) bool {
		for k, o := range order {
			c, err := relation.Compare(keys[perm[a]][k], keys[perm[b]][k])
			if err != nil && cmpErr == nil {
				cmpErr = err
			}
			if o.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	out := make([]row, len(rows))
	for i, p := range perm {
		out[i] = rows[p]
	}
	return out, cmpErr
}

// distinct merges equal rows (Value.Key equality) in first-seen order,
// each the ∨ of the rows it merges.
func distinct(rows []row) []row {
	var out []row
	at := map[string]int{}
	var lins [][]*lineage.Expr
	for _, rw := range rows {
		k := rowKey(rw.vals)
		i, ok := at[k]
		if !ok {
			i, at[k] = len(out), len(out)
			out = append(out, rw)
			lins = append(lins, nil)
		}
		lins[i] = append(lins[i], rw.lin)
	}
	for i := range out {
		out[i].lin = lineage.Or(lins[i]...)
	}
	return out
}

func rowKey(vals []relation.Value) string {
	var b strings.Builder
	for _, v := range vals {
		k := v.Key()
		b.WriteString(strconv.Itoa(len(k)))
		b.WriteByte(':')
		b.WriteString(k)
	}
	return b.String()
}

// scope resolves identifiers against a list of columns, as SQL does:
// case-insensitively, the qualifier (when given) naming the table, and
// exactly one column matching.
type scope struct {
	cols  []column
	bound map[*sql.Ident]int
}

func newScope(cols []column) *scope {
	return &scope{cols: cols, bound: map[*sql.Ident]int{}}
}

func (sc *scope) resolve(id *sql.Ident) (int, error) {
	if at, ok := sc.bound[id]; ok {
		return at, nil
	}
	at := -1
	for i, c := range sc.cols {
		if !strings.EqualFold(c.name, id.Name) || id.Qualifier != "" && !strings.EqualFold(c.table, id.Qualifier) {
			continue
		}
		if at >= 0 {
			return 0, fmt.Errorf("ambiguous column %s", id.SQL())
		}
		at = i
	}
	if at < 0 {
		return 0, fmt.Errorf("unknown column %s", id.SQL())
	}
	sc.bound[id] = at
	return at, nil
}

// mode is where an expression stands: IN-subqueries are allowed in
// WHERE and ON only, and over an aggregating block's groups an
// aggregate call or a GROUP BY expression is a value of the group.
type mode struct {
	subqueries bool
	group      *grouping
}

type grouping struct {
	by []sql.ExprNode
	in *scope
}

// check resolves every identifier of e, materializes its IN-subqueries
// and returns its static type — the checks the engine makes when it
// plans, before any row is read.
func (r *reference) check(e sql.ExprNode, sc *scope, m mode) (relation.Type, error) {
	if g := m.group; g != nil {
		if fc, ok := e.(*sql.FuncCall); ok {
			return r.checkAggregate(fc, g.in)
		}
		for _, by := range g.by {
			if sameExpr(e, by) {
				return r.check(by, g.in, mode{})
			}
		}
		if id, ok := e.(*sql.Ident); ok {
			return 0, fmt.Errorf("column %s is neither grouped nor aggregated", id.SQL())
		}
	}
	var kids []sql.ExprNode
	typ := relation.TypeBool
	switch n := e.(type) {
	case *sql.Ident:
		at, err := sc.resolve(n)
		if err != nil {
			return 0, err
		}
		return sc.cols[at].typ, nil
	case *sql.Lit:
		return literal(n).Type(), nil
	case *sql.BinaryExpr:
		lt, err := r.check(n.Left, sc, m)
		if err != nil {
			return 0, err
		}
		rt, err := r.check(n.Right, sc, m)
		if err != nil {
			return 0, err
		}
		switch n.Op {
		case "+", "-", "*":
			if lt == relation.TypeInt && rt == relation.TypeInt {
				return relation.TypeInt, nil
			}
			return relation.TypeFloat, nil
		case "/":
			return relation.TypeFloat, nil
		}
		return relation.TypeBool, nil
	case *sql.UnaryExpr:
		t, err := r.check(n.Child, sc, m)
		if n.Op == "-" {
			return t, err
		}
		return relation.TypeBool, err
	case *sql.IsNullExpr:
		kids = []sql.ExprNode{n.Child}
	case *sql.LikeExpr:
		kids = []sql.ExprNode{n.Child}
	case *sql.BetweenExpr:
		kids = []sql.ExprNode{n.Child, n.Lo, n.Hi}
	case *sql.InExpr:
		kids = append([]sql.ExprNode{n.Child}, n.List...)
		if n.Sub != nil {
			if !m.subqueries {
				return 0, fmt.Errorf("IN (SELECT …) outside WHERE and ON")
			}
			if err := r.materialize(n); err != nil {
				return 0, err
			}
		}
	case *sql.FuncCall:
		return 0, fmt.Errorf("aggregate %s outside an aggregating select list", n.Name)
	default:
		return 0, fmt.Errorf("unsupported expression %T", e)
	}
	for _, k := range kids {
		if _, err := r.check(k, sc, m); err != nil {
			return 0, err
		}
	}
	return typ, nil
}

func (r *reference) checkAggregate(fc *sql.FuncCall, in *scope) (relation.Type, error) {
	if fc.Star {
		return relation.TypeInt, nil
	}
	t, err := r.check(fc.Arg, in, mode{})
	switch {
	case fc.Name == "COUNT":
		return relation.TypeInt, err
	case fc.Name == "AVG":
		return relation.TypeFloat, err
	}
	return t, err
}

func (r *reference) checkAll(order []sql.OrderItem, sc *scope) error {
	for _, o := range order {
		if _, err := r.check(o.Expr, sc, mode{}); err != nil {
			return err
		}
	}
	return nil
}

// materialize evaluates an IN-subquery once; it must be uncorrelated
// and return one column.
func (r *reference) materialize(n *sql.InExpr) error {
	if _, ok := r.sets[n]; ok {
		return nil
	}
	sub, err := r.stmt(n.Sub)
	if err != nil {
		return err
	}
	if len(sub.cols) != 1 {
		return fmt.Errorf("IN subquery returns %d columns", len(sub.cols))
	}
	vals := make([]relation.Value, len(sub.rows))
	for i, rw := range sub.rows {
		vals[i] = rw.vals[0]
	}
	r.sets[n] = vals
	return nil
}

// env is what an expression reads: a row over a scope, or a group.
type env struct {
	sc    *scope
	vals  []relation.Value
	group *groupEnv
}

type groupEnv struct {
	key  []relation.Value
	by   []sql.ExprNode
	aggs map[*sql.FuncCall]relation.Value
}

// holds reports whether every condition is TRUE over en.
func (r *reference) holds(conds []sql.ExprNode, en *env) (bool, error) {
	for _, c := range conds {
		v, err := r.eval(c, en)
		if err != nil {
			return false, err
		}
		if b, ok := v.AsBool(); !ok && !v.IsNull() {
			return false, fmt.Errorf("condition %s is %s, not boolean", c.SQL(), v.Type())
		} else if !b || !ok {
			return false, nil
		}
	}
	return true, nil
}

// eval computes e under SQL's three-valued logic.
func (r *reference) eval(e sql.ExprNode, en *env) (relation.Value, error) {
	if g := en.group; g != nil {
		if fc, ok := e.(*sql.FuncCall); ok {
			return g.aggs[fc], nil
		}
		for i, by := range g.by {
			if sameExpr(e, by) {
				return g.key[i], nil
			}
		}
	}
	switch n := e.(type) {
	case *sql.Ident:
		at, err := en.sc.resolve(n)
		if err != nil {
			return relation.Value{}, err
		}
		return en.vals[at], nil
	case *sql.Lit:
		return literal(n), nil
	case *sql.BinaryExpr:
		l, err := r.eval(n.Left, en)
		if err != nil {
			return relation.Value{}, err
		}
		if n.Op == "AND" || n.Op == "OR" {
			return logic(n.Op, l, func() (relation.Value, error) { return r.eval(n.Right, en) })
		}
		rv, err := r.eval(n.Right, en)
		if err != nil {
			return relation.Value{}, err
		}
		return binary(n.Op, l, rv)
	case *sql.UnaryExpr:
		v, err := r.eval(n.Child, en)
		if err != nil || v.IsNull() {
			return v, err
		}
		if n.Op == "NOT" {
			b, ok := v.AsBool()
			if !ok {
				return relation.Value{}, fmt.Errorf("NOT over %s", v.Type())
			}
			return relation.Bool(!b), nil
		}
		switch v.Type() {
		case relation.TypeInt:
			i, _ := v.AsInt()
			return relation.Int(-i), nil
		case relation.TypeFloat:
			f, _ := v.AsFloat()
			return relation.Float(-f), nil
		}
		return relation.Value{}, fmt.Errorf("negating %s", v.Type())
	case *sql.IsNullExpr:
		v, err := r.eval(n.Child, en)
		return relation.Bool(v.IsNull() != n.Negate), err
	case *sql.LikeExpr:
		v, err := r.eval(n.Child, en)
		if err != nil || v.IsNull() {
			return v, err
		}
		s, ok := v.AsString()
		if !ok {
			return relation.Value{}, fmt.Errorf("LIKE over %s", v.Type())
		}
		return relation.Bool(r.like(n.Pattern).MatchString(s) != n.Negate), nil
	case *sql.BetweenExpr:
		c, err := r.eval(n.Child, en)
		if err != nil {
			return relation.Value{}, err
		}
		bound := func(b sql.ExprNode, op string) (relation.Value, error) {
			v, err := r.eval(b, en)
			if err != nil {
				return relation.Value{}, err
			}
			return binary(op, c, v)
		}
		ge, err := bound(n.Lo, ">=")
		if err != nil {
			return relation.Value{}, err
		}
		v, err := logic("AND", ge, func() (relation.Value, error) { return bound(n.Hi, "<=") })
		return not(v, n.Negate), err
	case *sql.InExpr:
		c, err := r.eval(n.Child, en)
		if err != nil {
			return relation.Value{}, err
		}
		if n.Sub != nil {
			return not(member(c, r.sets[n]), n.Negate), nil
		}
		// x IN (a, b, …) is x = a OR x = b OR …, stopping at the first
		// TRUE.
		acc := relation.Bool(false)
		for _, item := range n.List {
			v, err := r.eval(item, en)
			if err != nil {
				return relation.Value{}, err
			}
			eq, err := binary("=", c, v)
			if err != nil {
				return relation.Value{}, err
			}
			if acc, err = logic("OR", acc, func() (relation.Value, error) { return eq, nil }); err != nil {
				return relation.Value{}, err
			}
			if b, ok := acc.AsBool(); ok && b {
				break
			}
		}
		return not(acc, n.Negate), nil
	}
	return relation.Value{}, fmt.Errorf("cannot evaluate %s", e.SQL())
}

// logic is AND or OR over SQL's three values: FALSE decides AND and
// TRUE decides OR from either side (the right side is not evaluated
// when the left decides), and neither deciding with a NULL side is
// NULL.
func logic(op string, l relation.Value, right func() (relation.Value, error)) (relation.Value, error) {
	decides := op == "OR"
	if b, ok := l.AsBool(); ok && b == decides {
		return l, nil
	}
	rv, err := right()
	if err != nil {
		return relation.Value{}, err
	}
	for _, v := range []relation.Value{l, rv} {
		if _, ok := v.AsBool(); !ok && !v.IsNull() {
			return relation.Value{}, fmt.Errorf("%s over %s", op, v.Type())
		}
	}
	if b, ok := rv.AsBool(); ok && b == decides {
		return rv, nil
	}
	if l.IsNull() || rv.IsNull() {
		return relation.Null(), nil
	}
	return relation.Bool(!decides), nil
}

func not(v relation.Value, negate bool) relation.Value {
	if b, ok := v.AsBool(); ok && negate {
		return relation.Bool(!b)
	}
	return v
}

// member is x IN S written out as the OR of x = s over S: TRUE on a
// match, else NULL when x or some s is NULL, else FALSE (and FALSE over
// the empty set).
func member(x relation.Value, set []relation.Value) relation.Value {
	in := relation.Bool(false)
	for _, s := range set {
		switch {
		case x.IsNull() || s.IsNull():
			in = relation.Null()
		case relation.Equal(x, s):
			return relation.Bool(true)
		}
	}
	return in
}

// binary applies a comparison or arithmetic operator; a NULL operand
// gives NULL, and so does division by zero.
func binary(op string, l, r relation.Value) (relation.Value, error) {
	if l.IsNull() || r.IsNull() {
		return relation.Null(), nil
	}
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		c, err := relation.Compare(l, r)
		if err != nil {
			return relation.Value{}, err
		}
		holds := map[string]bool{"=": c == 0, "<>": c != 0, "<": c < 0, "<=": c <= 0, ">": c > 0, ">=": c >= 0}
		return relation.Bool(holds[op]), nil
	}
	if l.Type() == relation.TypeInt && r.Type() == relation.TypeInt && op != "/" {
		li, _ := l.AsInt()
		ri, _ := r.AsInt()
		switch op {
		case "+":
			return relation.Int(li + ri), nil
		case "-":
			return relation.Int(li - ri), nil
		case "*":
			return relation.Int(li * ri), nil
		}
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return relation.Value{}, fmt.Errorf("%s over %s and %s", op, l.Type(), r.Type())
	}
	switch op {
	case "+":
		return relation.Float(lf + rf), nil
	case "-":
		return relation.Float(lf - rf), nil
	case "*":
		return relation.Float(lf * rf), nil
	case "/":
		if rf == 0 {
			return relation.Null(), nil
		}
		return relation.Float(lf / rf), nil
	}
	return relation.Value{}, fmt.Errorf("unknown operator %s", op)
}

// like compiles a LIKE pattern (% any run, _ any one character,
// matched ignoring case).
func (r *reference) like(pattern string) *regexp.Regexp {
	if re, ok := r.likes[pattern]; ok {
		return re
	}
	var b strings.Builder
	b.WriteString("(?is)^")
	for _, c := range pattern {
		switch c {
		case '%':
			b.WriteString(".*")
		case '_':
			b.WriteString(".")
		default:
			b.WriteString(regexp.QuoteMeta(string(c)))
		}
	}
	b.WriteString("$")
	re := regexp.MustCompile(b.String())
	r.likes[pattern] = re
	return re
}

func literal(l *sql.Lit) relation.Value {
	switch l.Kind {
	case sql.LitBool:
		return relation.Bool(l.Bool)
	case sql.LitInt:
		return relation.Int(l.Int)
	case sql.LitFloat:
		return relation.Float(l.Flt)
	case sql.LitString:
		return relation.String_(l.Str)
	}
	return relation.Null()
}

// render names an unaliased computed column of a block without
// aggregation, as the engine names it: operators in parentheses,
// columns qualified, IN (list) as its ORs and BETWEEN as its two
// comparisons.
func render(e sql.ExprNode, sc *scope) string {
	switch n := e.(type) {
	case *sql.Ident:
		c := sc.cols[sc.bound[n]]
		if c.table == "" {
			return c.name
		}
		return c.table + "." + c.name
	case *sql.Lit:
		if n.Kind == sql.LitString {
			return "'" + n.Str + "'"
		}
		return literal(n).String()
	case *sql.BinaryExpr:
		return "(" + render(n.Left, sc) + " " + n.Op + " " + render(n.Right, sc) + ")"
	case *sql.UnaryExpr:
		if n.Op == "-" {
			return "-" + render(n.Child, sc)
		}
		return "NOT " + render(n.Child, sc)
	case *sql.IsNullExpr:
		return render(n.Child, sc) + negated(n.Negate, " IS NOT NULL", " IS NULL")
	case *sql.LikeExpr:
		return render(n.Child, sc) + negated(n.Negate, " NOT LIKE '", " LIKE '") + n.Pattern + "'"
	case *sql.BetweenExpr:
		c := render(n.Child, sc)
		return negated(n.Negate, "NOT ", "") + "((" + c + " >= " + render(n.Lo, sc) + ") AND (" + c + " <= " + render(n.Hi, sc) + "))"
	case *sql.InExpr:
		c, s := render(n.Child, sc), ""
		for i, item := range n.List {
			eq := "(" + c + " = " + render(item, sc) + ")"
			if i == 0 {
				s = eq
			} else {
				s = "(" + s + " OR " + eq + ")"
			}
		}
		return negated(n.Negate, "NOT ", "") + s
	}
	return e.SQL()
}

func negated(negate bool, yes, no string) string {
	if negate {
		return yes
	}
	return no
}

// sameExpr reports whether two expressions are the same up to the case
// of identifiers: how a select-list expression matches GROUP BY.
func sameExpr(a, b sql.ExprNode) bool {
	switch x := a.(type) {
	case *sql.Ident:
		y, ok := b.(*sql.Ident)
		return ok && strings.EqualFold(x.Qualifier, y.Qualifier) && strings.EqualFold(x.Name, y.Name)
	case *sql.Lit:
		y, ok := b.(*sql.Lit)
		return ok && x.Kind == y.Kind && literal(x).Key() == literal(y).Key()
	case *sql.BinaryExpr:
		y, ok := b.(*sql.BinaryExpr)
		return ok && x.Op == y.Op && sameExpr(x.Left, y.Left) && sameExpr(x.Right, y.Right)
	case *sql.UnaryExpr:
		y, ok := b.(*sql.UnaryExpr)
		return ok && x.Op == y.Op && sameExpr(x.Child, y.Child)
	case *sql.IsNullExpr:
		y, ok := b.(*sql.IsNullExpr)
		return ok && x.Negate == y.Negate && sameExpr(x.Child, y.Child)
	case *sql.LikeExpr:
		y, ok := b.(*sql.LikeExpr)
		return ok && x.Negate == y.Negate && x.Pattern == y.Pattern && sameExpr(x.Child, y.Child)
	case *sql.BetweenExpr:
		y, ok := b.(*sql.BetweenExpr)
		return ok && x.Negate == y.Negate && sameExpr(x.Child, y.Child) && sameExpr(x.Lo, y.Lo) && sameExpr(x.Hi, y.Hi)
	case *sql.InExpr:
		y, ok := b.(*sql.InExpr)
		if !ok || x.Negate != y.Negate || len(x.List) != len(y.List) || (x.Sub == nil) != (y.Sub == nil) ||
			x.Sub != nil && x.Sub.SQL() != y.Sub.SQL() || !sameExpr(x.Child, y.Child) {
			return false
		}
		for i := range x.List {
			if !sameExpr(x.List[i], y.List[i]) {
				return false
			}
		}
		return true
	case *sql.FuncCall:
		y, ok := b.(*sql.FuncCall)
		return ok && x.Name == y.Name && x.Star == y.Star && (x.Star || sameExpr(x.Arg, y.Arg))
	}
	return false
}

// conjuncts splits a condition at its top-level ANDs.
func conjuncts(e sql.ExprNode) []sql.ExprNode {
	if b, ok := e.(*sql.BinaryExpr); ok && b.Op == "AND" {
		return append(conjuncts(b.Left), conjuncts(b.Right)...)
	}
	if e == nil {
		return nil
	}
	return []sql.ExprNode{e}
}

// children lists an expression's operands; a subquery is not one (it
// is its own scope).
func children(e sql.ExprNode) []sql.ExprNode {
	switch n := e.(type) {
	case *sql.BinaryExpr:
		return []sql.ExprNode{n.Left, n.Right}
	case *sql.UnaryExpr:
		return []sql.ExprNode{n.Child}
	case *sql.IsNullExpr:
		return []sql.ExprNode{n.Child}
	case *sql.LikeExpr:
		return []sql.ExprNode{n.Child}
	case *sql.BetweenExpr:
		return []sql.ExprNode{n.Child, n.Lo, n.Hi}
	case *sql.InExpr:
		return append([]sql.ExprNode{n.Child}, n.List...)
	case *sql.FuncCall:
		if n.Arg != nil {
			return []sql.ExprNode{n.Arg}
		}
	}
	return nil
}

func idents(e sql.ExprNode) []*sql.Ident {
	if id, ok := e.(*sql.Ident); ok {
		return []*sql.Ident{id}
	}
	var out []*sql.Ident
	for _, c := range children(e) {
		out = append(out, idents(c)...)
	}
	return out
}

func aggCalls(e sql.ExprNode) []*sql.FuncCall {
	if fc, ok := e.(*sql.FuncCall); ok {
		return []*sql.FuncCall{fc}
	}
	var out []*sql.FuncCall
	for _, c := range children(e) {
		out = append(out, aggCalls(c)...)
	}
	return out
}

// blockExprs lists every expression of one select block.
func blockExprs(s *sql.SelectStmt) []sql.ExprNode {
	out := append([]sql.ExprNode{s.Where, s.Having}, s.GroupBy...)
	for _, it := range s.Items {
		out = append(out, it.Expr)
	}
	for _, j := range s.Joins {
		out = append(out, j.On)
	}
	for _, o := range s.OrderBy {
		out = append(out, o.Expr)
	}
	return out
}

func blockReadsConfidence(s *sql.SelectStmt) bool {
	for _, e := range blockExprs(s) {
		for _, id := range idents(e) {
			if strings.EqualFold(id.Name, "_confidence") {
				return true
			}
		}
	}
	return false
}

// aggregates reports whether a block groups its rows: it has GROUP BY,
// or an aggregate call in its select list or HAVING.
func aggregates(s *sql.SelectStmt) bool {
	if len(s.GroupBy) > 0 || len(aggCalls(s.Having)) > 0 {
		return true
	}
	for _, it := range s.Items {
		if !it.Star && len(aggCalls(it.Expr)) > 0 {
			return true
		}
	}
	return false
}
