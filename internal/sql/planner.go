package sql

import (
	"fmt"
	"strings"

	"pcqe/internal/relation"
)

// PlanInfo carries planner metadata alongside the operator tree.
type PlanInfo struct {
	// Notes annotates operators with cardinality/cost estimates for
	// EXPLAIN (see relation.ExplainAnnotated).
	Notes map[relation.Operator]string
	// LineageHint is a static prediction of result-formula complexity:
	// "read-once" when the statement's shape guarantees every result
	// lineage is read-once (no DISTINCT, aggregation, deduplicating set
	// operation, or repeated table), else "may-share". Evaluation
	// re-checks per formula; the hint is advisory (spans, EXPLAIN).
	LineageHint string
}

// planner carries what planning one statement shares across its select
// blocks, derived tables and IN-subqueries.
type planner struct {
	cat *relation.Catalog
	// asOf is the committed version plan-time evaluation (IN-subquery
	// materialization) reads.
	asOf int64
	info *PlanInfo
}

func newPlanner(cat *relation.Catalog, asOf int64) *planner {
	return &planner{cat: cat, asOf: asOf, info: &PlanInfo{Notes: map[relation.Operator]string{}}}
}

// PlanDetailedAt compiles a parsed statement into a relational operator
// tree over the catalog's tables, with the planner's metadata (cost
// annotations, lineage hint). The resulting operator propagates
// lineage, so running it yields tuples whose confidence the catalog can
// compute. Join order, join algorithms and access paths are chosen by
// estimated cost (optimize.go). Plan-time evaluation (IN-subquery
// materialization) reads committed version asOf; run the returned tree
// with relation.RunAt at the same version, so planning and execution
// see one committed state.
func PlanDetailedAt(cat *relation.Catalog, stmt *SelectStmt, asOf int64) (relation.Operator, *PlanInfo, error) {
	p := newPlanner(cat, asOf)
	p.info.LineageHint = lineageHint(stmt)
	op, _, err := p.stmt(stmt)
	if err != nil {
		return nil, nil, err
	}
	return op, p.info, nil
}

// stmt plans a (possibly compound) statement and estimates its rows.
func (p *planner) stmt(stmt *SelectStmt) (relation.Operator, float64, error) {
	op, rows, err := p.single(stmt)
	if err != nil {
		return nil, 0, err
	}
	for ; stmt.SetOp != SetNone; stmt = stmt.Next {
		right, more, err := p.single(stmt.Next)
		if err != nil {
			return nil, 0, err
		}
		switch stmt.SetOp {
		case SetUnion, SetUnionAll:
			op = &relation.Union{Left: op, Right: right, All: stmt.SetOp == SetUnionAll}
			rows += more
		case SetIntersect:
			op = &relation.Intersect{Left: op, Right: right}
		case SetExcept:
			op = &relation.Except{Left: op, Right: right}
		}
	}
	return op, rows, nil
}

// QuerySnap parses, plans and runs a SQL string against the snapshot's
// pinned version: scans, index lookups, attached confidences and
// materialized IN-subqueries all resolve at that one committed state.
func QuerySnap(snap *relation.Snapshot, query string) ([]*relation.Tuple, *relation.Schema, error) {
	res, err := (*PlanCache)(nil).QuerySnap(snap, query)
	return res.Rows, res.Schema, err
}

// planAndRun is the package's one plan → run body: it plans the
// statement at committed version asOf and drains the plan at that
// same version, so planning (subquery materialization) and
// execution read one committed state and concurrent commits cannot
// tear the result.
func planAndRun(cat *relation.Catalog, stmt *SelectStmt, asOf int64) (relation.Operator, *PlanInfo, []*relation.Tuple, error) {
	op, info, err := PlanDetailedAt(cat, stmt, asOf)
	if err != nil {
		return nil, nil, nil, err
	}
	rows, err := relation.RunAt(op, asOf)
	if err != nil {
		return nil, nil, nil, err
	}
	return op, info, rows, nil
}

// single plans one select block: FROM and WHERE, then aggregation or
// projection, ORDER BY and LIMIT on top.
func (p *planner) single(stmt *SelectStmt) (relation.Operator, float64, error) {
	op, rows, err := planJoinBlock(p, stmt)
	if err != nil {
		return nil, 0, err
	}

	pre := op
	aggregated := aggregates(stmt)
	if aggregated {
		op, err = planAggregate(op, stmt)
		if len(stmt.GroupBy) == 0 {
			rows = 1
		}
	} else {
		op, err = planProjection(op, stmt)
	}
	if err != nil {
		return nil, 0, err
	}

	if len(stmt.OrderBy) > 0 {
		// ORDER BY may reference output columns (including aliases); if
		// that fails and there is no aggregation, it may reference input
		// columns the projection dropped — then sort below the Project
		// (Project preserves order, and DISTINCT keeps first-seen order).
		keys, errOut := compileSortKeys(stmt.OrderBy, op.Schema())
		switch {
		case errOut == nil:
			op = &relation.Sort{Input: op, Keys: keys}
		case aggregated:
			return nil, 0, errOut
		default:
			keysIn, errIn := compileSortKeys(stmt.OrderBy, pre.Schema())
			if errIn != nil {
				return nil, 0, errOut
			}
			sorted := &relation.Sort{Input: pre, Keys: keysIn}
			op, err = planProjection(sorted, stmt)
			if err != nil {
				return nil, 0, err
			}
		}
	}
	if stmt.Limit >= 0 || stmt.Offset > 0 {
		op = &relation.Limit{Input: op, N: stmt.Limit, Offset: stmt.Offset}
		if stmt.Limit >= 0 && float64(stmt.Limit) < rows {
			rows = float64(stmt.Limit)
		}
	}
	return op, rows, nil
}

// lineageHint statically predicts whether every result formula of the
// statement is read-once: each base tuple contributes at most one leaf,
// which holds when no block deduplicates (DISTINCT, INTERSECT/EXCEPT/
// UNION without ALL), aggregates, or reads the same table twice.
func lineageHint(stmt *SelectStmt) string {
	if stmtMayShare(stmt, map[string]bool{}) {
		return "may-share"
	}
	return "read-once"
}

func stmtMayShare(stmt *SelectStmt, tables map[string]bool) bool {
	for s := stmt; s != nil; s = s.Next {
		if s.Distinct || s.Having != nil || aggregates(s) {
			return true
		}
		if s.SetOp == SetUnion || s.SetOp == SetIntersect || s.SetOp == SetExcept {
			return true
		}
		for _, tr := range fromTables(s) {
			if tr.Sub != nil {
				if stmtMayShare(tr.Sub, tables) {
					return true
				}
				continue
			}
			name := strings.ToLower(tr.Name)
			if tables[name] {
				return true
			}
			tables[name] = true
		}
	}
	return false
}

// fromTables lists a select block's table references in FROM order.
func fromTables(s *SelectStmt) []TableRef {
	refs := []TableRef{s.From}
	for _, j := range s.Joins {
		refs = append(refs, j.Table)
	}
	return refs
}

func isConfidenceRef(n ExprNode) bool {
	id, ok := n.(*Ident)
	return ok && strings.EqualFold(id.Name, relation.ConfidenceColumn)
}

// blockExprs lists every expression of one select block (nil entries
// for SELECT * and absent clauses included).
func blockExprs(s *SelectStmt) []ExprNode {
	out := []ExprNode{s.Where, s.Having}
	for _, it := range s.Items {
		out = append(out, it.Expr)
	}
	for _, j := range s.Joins {
		out = append(out, j.On)
	}
	out = append(out, s.GroupBy...)
	for _, o := range s.OrderBy {
		out = append(out, o.Expr)
	}
	return out
}

// aggregates reports whether the block groups its rows or calls an
// aggregate.
func aggregates(s *SelectStmt) bool {
	agg := len(s.GroupBy) > 0 || containsAgg(s.Having)
	for _, it := range s.Items {
		agg = agg || containsAgg(it.Expr)
	}
	return agg
}

// stmtReferencesConfidence reports whether any expression of the single
// select block mentions the _confidence pseudo-column.
func stmtReferencesConfidence(s *SelectStmt) bool {
	found := false
	for _, e := range blockExprs(s) {
		walkExpr(e, func(n ExprNode) { found = found || isConfidenceRef(n) })
	}
	return found
}

func compileSortKeys(items []OrderItem, schema *relation.Schema) ([]relation.SortKey, error) {
	keys := make([]relation.SortKey, len(items))
	for i, o := range items {
		e, err := compileExpr(o.Expr, schema)
		if err != nil {
			return nil, err
		}
		keys[i] = relation.SortKey{Expr: e, Desc: o.Desc}
	}
	return keys, nil
}

// resolveSubqueries returns e with every IN (SELECT ...) under it
// materialized: the subquery is planned as this planner would plan the
// statement, run at committed version asOf, and its one output column
// kept as a key set, a NULL's included, on a copy of the node.
// Subqueries must be uncorrelated and produce exactly one column. A nil
// input stays nil.
func (p *planner) resolveSubqueries(e ExprNode) (ExprNode, error) {
	switch n := e.(type) {
	case *InExpr:
		if n.Sub == nil {
			return n, nil
		}
		// The key set outlives planning; the subquery's notes need not.
		sub := *p
		sub.info = &PlanInfo{Notes: map[relation.Operator]string{}}
		op, _, err := sub.stmt(n.Sub)
		if err != nil {
			return nil, err
		}
		if op.Schema().Len() != 1 {
			return nil, errAt(n.Tok, "IN subquery must produce exactly one column, got %d", op.Schema().Len())
		}
		rows, err := relation.RunAt(op, p.asOf)
		if err != nil {
			return nil, err
		}
		cp := *n
		cp.set = make(map[string]bool, len(rows))
		for _, r := range rows {
			cp.set[r.Values[0].Key()] = true
		}
		return &cp, nil
	case *BinaryExpr:
		l, err := p.resolveSubqueries(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := p.resolveSubqueries(n.Right)
		if err != nil {
			return nil, err
		}
		if l != n.Left || r != n.Right {
			return &BinaryExpr{Op: n.Op, Left: l, Right: r, Tok: n.Tok}, nil
		}
	case *UnaryExpr:
		c, err := p.resolveSubqueries(n.Child)
		if err != nil {
			return nil, err
		}
		if c != n.Child {
			return &UnaryExpr{Op: n.Op, Child: c, Tok: n.Tok}, nil
		}
	case *IsNullExpr:
		c, err := p.resolveSubqueries(n.Child)
		if err != nil {
			return nil, err
		}
		if c != n.Child {
			return &IsNullExpr{Child: c, Negate: n.Negate, Tok: n.Tok}, nil
		}
	}
	return e, nil
}

func flattenAnd(e ExprNode) []ExprNode {
	if be, ok := e.(*BinaryExpr); ok && be.Op == "AND" {
		return append(flattenAnd(be.Left), flattenAnd(be.Right)...)
	}
	return []ExprNode{e}
}

func planProjection(op relation.Operator, stmt *SelectStmt) (relation.Operator, error) {
	schema := op.Schema()
	var exprs []relation.Expr
	var names []string
	for _, it := range stmt.Items {
		if it.Star {
			for i, col := range schema.Columns {
				exprs = append(exprs, &relation.ColRef{Index: i, Col: col})
				names = append(names, col.Name)
			}
			continue
		}
		e, err := compileExpr(it.Expr, schema)
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
		names = append(names, it.Alias)
	}
	return &relation.Project{Input: op, Exprs: exprs, Names: names, Distinct: stmt.Distinct}, nil
}

// planAggregate handles GROUP BY / aggregate queries: it builds an
// Aggregate whose output is [group columns..., aggregate columns...],
// then compiles the select list (and HAVING) against that output,
// replacing aggregate calls with references into the aggregate columns.
// Non-aggregate select expressions must match a GROUP BY expression
// textually (the usual simple validation).
func planAggregate(op relation.Operator, stmt *SelectStmt) (relation.Operator, error) {
	in := op.Schema()
	groupExprs := make([]relation.Expr, len(stmt.GroupBy))
	groupKeys := make([]string, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		e, err := compileExpr(g, in)
		if err != nil {
			return nil, err
		}
		groupExprs[i] = e
		groupKeys[i] = canonical(g)
	}

	// Collect distinct aggregate calls from the select list and HAVING.
	var aggCalls []*FuncCall
	aggIndex := map[string]int{}
	collect := func(e ExprNode) {
		walkExpr(e, func(n ExprNode) {
			if fc, ok := n.(*FuncCall); ok {
				key := canonical(fc)
				if _, seen := aggIndex[key]; !seen {
					aggIndex[key] = len(aggCalls)
					aggCalls = append(aggCalls, fc)
				}
			}
		})
	}
	for _, it := range stmt.Items {
		if it.Star {
			return nil, errAt(Token{}, "SELECT * cannot be combined with GROUP BY or aggregates")
		}
		collect(it.Expr)
	}
	collect(stmt.Having)

	specs := make([]relation.AggSpec, len(aggCalls))
	for i, fc := range aggCalls {
		spec := relation.AggSpec{}
		for kind := relation.AggCount; kind <= relation.AggMax; kind++ {
			if kind.String() == fc.Name {
				spec.Kind = kind
			}
		}
		if !fc.Star {
			arg, err := compileExpr(fc.Arg, in)
			if err != nil {
				return nil, err
			}
			spec.Arg = arg
		}
		specs[i] = spec
	}
	agg := &relation.Aggregate{Input: op, GroupBy: groupExprs, Aggs: specs}
	aggSchema := agg.Schema()

	// Over the aggregate's output an aggregate call is its aggregate
	// column, an expression textually equal to a GROUP BY key is that
	// group column, and any other bare column is an error; everything
	// else lowers as it does anywhere.
	over := lowering{schema: aggSchema, leaf: func(e ExprNode) (relation.Expr, error) {
		idx := -1
		if fc, ok := e.(*FuncCall); ok {
			idx = len(groupExprs) + aggIndex[canonical(fc)]
		} else {
			key := canonical(e)
			for i, gk := range groupKeys {
				if key == gk {
					idx = i
				}
			}
		}
		if id, ok := e.(*Ident); ok && idx < 0 {
			return nil, errAt(id.Tok, "column %s must appear in GROUP BY or inside an aggregate", id.SQL())
		}
		if idx < 0 {
			return nil, nil
		}
		return &relation.ColRef{Index: idx, Col: aggSchema.Columns[idx]}, nil
	}}

	var out relation.Operator = agg
	if stmt.Having != nil {
		pred, err := over.expr(stmt.Having)
		if err != nil {
			return nil, err
		}
		out = &relation.Select{Input: out, Pred: pred}
	}

	exprs := make([]relation.Expr, len(stmt.Items))
	names := make([]string, len(stmt.Items))
	for i, it := range stmt.Items {
		e, err := over.expr(it.Expr)
		if err != nil {
			return nil, err
		}
		exprs[i] = e
		names[i] = it.Alias
		if names[i] == "" {
			names[i] = defaultName(it.Expr)
		}
	}
	return &relation.Project{Input: out, Exprs: exprs, Names: names, Distinct: stmt.Distinct}, nil
}

func defaultName(e ExprNode) string {
	switch n := e.(type) {
	case *Ident:
		return n.Name
	case *FuncCall:
		return strings.ToLower(n.SQL())
	default:
		return e.SQL()
	}
}

// canonical renders an expression for structural matching (GROUP BY and
// aggregate dedup), lower-casing identifiers — and only identifiers.
// Lowercasing the whole rendered SQL would collapse case-differing
// string literals ('ABC' vs 'abc'), silently matching GROUP BY
// expressions that compute different values.
func canonical(e ExprNode) string { return renderExpr(e, true) }

func walkExpr(e ExprNode, f func(ExprNode)) {
	if e == nil {
		return
	}
	f(e)
	switch n := e.(type) {
	case *BinaryExpr:
		walkExpr(n.Left, f)
		walkExpr(n.Right, f)
	case *UnaryExpr:
		walkExpr(n.Child, f)
	case *IsNullExpr:
		walkExpr(n.Child, f)
	case *LikeExpr:
		walkExpr(n.Child, f)
	case *InExpr:
		walkExpr(n.Child, f)
		for _, x := range n.List {
			walkExpr(x, f)
		}
	case *BetweenExpr:
		walkExpr(n.Child, f)
		walkExpr(n.Lo, f)
		walkExpr(n.Hi, f)
	case *FuncCall:
		walkExpr(n.Arg, f)
	}
}

func containsAgg(e ExprNode) bool {
	found := false
	walkExpr(e, func(n ExprNode) {
		if _, ok := n.(*FuncCall); ok {
			found = true
		}
	})
	return found
}

// binaryOp finds the operator the AST spells as relation.BinaryOp's
// String does (OpEq and OpDiv are the first and the last of them).
func binaryOp(n *BinaryExpr) (relation.BinaryOp, error) {
	for op := relation.OpEq; op <= relation.OpDiv; op++ {
		if op.String() == n.Op {
			return op, nil
		}
	}
	return 0, errAt(n.Tok, "unsupported operator %q", n.Op)
}

// lowering is the package's one translation of AST expressions into
// relation.Expr over a schema.
type lowering struct {
	schema *relation.Schema
	// leaf, when set, sees every node before the node's own rule and may
	// resolve it to a column of schema itself (planAggregate's output
	// columns); it returns nil, nil to decline.
	leaf func(ExprNode) (relation.Expr, error)
}

// compileExpr lowers an AST expression (no aggregates) onto a schema.
func compileExpr(e ExprNode, schema *relation.Schema) (relation.Expr, error) {
	return lowering{schema: schema}.expr(e)
}

func (lw lowering) expr(e ExprNode) (relation.Expr, error) {
	if lw.leaf != nil {
		if out, err := lw.leaf(e); out != nil || err != nil {
			return out, err
		}
	}
	switch n := e.(type) {
	case *Ident:
		cr, err := relation.NewColRef(lw.schema, n.Qualifier, n.Name)
		if err != nil {
			return nil, errAt(n.Tok, "%v", err)
		}
		return cr, nil
	case *Lit:
		return relation.Const{Value: litValue(n)}, nil
	case *BinaryExpr:
		l, err := lw.expr(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := lw.expr(n.Right)
		if err != nil {
			return nil, err
		}
		op, err := binaryOp(n)
		if err != nil {
			return nil, err
		}
		return &relation.Binary{Op: op, Left: l, Right: r}, nil
	case *UnaryExpr:
		c, err := lw.expr(n.Child)
		if err != nil {
			return nil, err
		}
		if n.Op == "-" {
			return &relation.Unary{Op: relation.OpNeg, Child: c}, nil
		}
		return &relation.Unary{Op: relation.OpNot, Child: c}, nil
	case *IsNullExpr:
		c, err := lw.expr(n.Child)
		if err != nil {
			return nil, err
		}
		op := relation.OpIsNull
		if n.Negate {
			op = relation.OpIsNotNull
		}
		return &relation.Unary{Op: op, Child: c}, nil
	case *LikeExpr:
		c, err := lw.expr(n.Child)
		if err != nil {
			return nil, err
		}
		return &relation.Like{Child: c, Pattern: n.Pattern, Negate: n.Negate}, nil
	case *InExpr:
		if n.Sub != nil && n.set == nil {
			return nil, errAt(n.Tok, "IN subqueries are only supported in WHERE and JOIN..ON conditions")
		}
		c, err := lw.expr(n.Child)
		if err != nil {
			return nil, err
		}
		if n.set != nil {
			return &relation.InSet{Child: c, Set: n.set, Negate: n.Negate, Label: "(" + n.Sub.SQL() + ")"}, nil
		}
		// x IN (a,b) compiles to x=a OR x=b; NOT IN negates the whole.
		var pred relation.Expr
		for _, item := range n.List {
			ie, err := lw.expr(item)
			if err != nil {
				return nil, err
			}
			eq := &relation.Binary{Op: relation.OpEq, Left: c, Right: ie}
			if pred == nil {
				pred = eq
			} else {
				pred = &relation.Binary{Op: relation.OpOr, Left: pred, Right: eq}
			}
		}
		if pred == nil {
			pred = relation.Const{Value: relation.Bool(false)}
		}
		if n.Negate {
			pred = &relation.Unary{Op: relation.OpNot, Child: pred}
		}
		return pred, nil
	case *BetweenExpr:
		c, err := lw.expr(n.Child)
		if err != nil {
			return nil, err
		}
		lo, err := lw.expr(n.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := lw.expr(n.Hi)
		if err != nil {
			return nil, err
		}
		var pred relation.Expr = &relation.Binary{
			Op:    relation.OpAnd,
			Left:  &relation.Binary{Op: relation.OpGe, Left: c, Right: lo},
			Right: &relation.Binary{Op: relation.OpLe, Left: c, Right: hi},
		}
		if n.Negate {
			pred = &relation.Unary{Op: relation.OpNot, Child: pred}
		}
		return pred, nil
	case *FuncCall:
		return nil, errAt(n.Tok, "aggregate %s is only allowed in SELECT with GROUP BY context", n.Name)
	}
	return nil, fmt.Errorf("sql: unsupported expression %T", e)
}

func litValue(l *Lit) relation.Value {
	switch l.Kind {
	case LitNull:
		return relation.Null()
	case LitBool:
		return relation.Bool(l.Bool)
	case LitInt:
		return relation.Int(l.Int)
	case LitFloat:
		return relation.Float(l.Flt)
	case LitString:
		return relation.String_(l.Str)
	}
	return relation.Null()
}
