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
	// CostBased reports whether the cost-based join planner produced at
	// least one select block of the plan (false when every block fell
	// back to the rule-based statement-order path).
	CostBased bool
	// LineageHint is a static prediction of result-formula complexity:
	// "read-once" when the statement's shape guarantees every result
	// lineage is read-once (no DISTINCT, aggregation, deduplicating set
	// operation, or repeated table), else "may-share". Evaluation
	// re-checks per formula; the hint is advisory (spans, EXPLAIN).
	LineageHint string
}

// PlanDetailedAt compiles a parsed statement into a relational operator
// tree over the catalog's tables, with the planner's metadata (cost
// annotations, lineage hint). The resulting operator propagates
// lineage, so running it yields tuples whose confidence the catalog can
// compute. Join order and access paths are chosen by estimated cost
// where the statement shape allows it, falling back to the rule-based
// statement-order plan otherwise. Plan-time evaluation (IN-subquery
// materialization) is pinned to committed version asOf (asOf <= 0 reads
// the latest committed state). Scans in the returned tree are not
// pinned — run it with relation.RunAt at the same version to pin the
// whole execution.
func PlanDetailedAt(cat *relation.Catalog, stmt *SelectStmt, asOf int64) (relation.Operator, *PlanInfo, error) {
	info := &PlanInfo{Notes: map[relation.Operator]string{}, LineageHint: lineageHint(stmt)}
	op, err := planStmt(cat, stmt, info, true, asOf)
	if err != nil {
		return nil, nil, err
	}
	return op, info, nil
}

// PlanRuleBased compiles the statement with the pre-cost-model planner:
// joins in statement order, hash join whenever the ON clause is a pure
// equi-join, no reordering or pushdown beyond the single-table filter
// push into the leaf. Kept as the differential baseline for the cost-based path.
func PlanRuleBased(cat *relation.Catalog, stmt *SelectStmt) (relation.Operator, error) {
	return planStmt(cat, stmt, &PlanInfo{Notes: map[relation.Operator]string{}}, false, 0)
}

func planStmt(cat *relation.Catalog, stmt *SelectStmt, info *PlanInfo, costBased bool, asOf int64) (relation.Operator, error) {
	op, err := planSingle(cat, stmt, info, costBased, asOf)
	if err != nil {
		return nil, err
	}
	for stmt.SetOp != SetNone {
		right, err := planSingle(cat, stmt.Next, info, costBased, asOf)
		if err != nil {
			return nil, err
		}
		switch stmt.SetOp {
		case SetUnion:
			op = &relation.Union{Left: op, Right: right}
		case SetUnionAll:
			op = &relation.Union{Left: op, Right: right, All: true}
		case SetIntersect:
			op = &relation.Intersect{Left: op, Right: right}
		case SetExcept:
			op = &relation.Except{Left: op, Right: right}
		}
		stmt = stmt.Next
	}
	return op, nil
}

// QuerySnap parses, plans and runs a SQL string against the snapshot's
// pinned version: scans, index lookups, attached confidences and
// materialized IN-subqueries all resolve at that one committed state.
func QuerySnap(snap *relation.Snapshot, query string) ([]*relation.Tuple, *relation.Schema, error) {
	res, err := (*PlanCache)(nil).QuerySnap(snap, query)
	return res.Rows, res.Schema, err
}

// planAndRun is the package's one plan → run body: it plans the
// statement at committed version asOf and drains the plan pinned to
// that same version, so planning (subquery materialization) and
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

func planSingle(cat *relation.Catalog, stmt *SelectStmt, info *PlanInfo, costBased bool, asOf int64) (relation.Operator, error) {
	var op relation.Operator
	var err error

	// Cost-based FROM+WHERE block: join reordering with predicate and
	// projection pushdown, cost-chosen join algorithms. planCostBased
	// returns nil (no error) when the statement shape is outside its
	// fragment; the rule-based path below then keeps the pre-existing
	// semantics (including its error messages).
	if costBased && !stmtReferencesConfidence(stmt) {
		op, err = planCostBased(cat, stmt, info, asOf)
		if err != nil {
			return nil, err
		}
		if op != nil {
			info.CostBased = true
		}
	}
	if op == nil {
		op, err = planFromWhere(cat, stmt, asOf)
		if err != nil {
			return nil, err
		}
	}

	hasAgg := stmt.Having != nil && containsAgg(stmt.Having)
	for _, it := range stmt.Items {
		if !it.Star && containsAgg(it.Expr) {
			hasAgg = true
		}
	}

	pre := op
	aggregated := len(stmt.GroupBy) > 0 || hasAgg
	if aggregated {
		op, err = planAggregate(op, stmt)
		if err != nil {
			return nil, err
		}
	} else {
		op, err = planProjection(op, stmt)
		if err != nil {
			return nil, err
		}
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
			return nil, errOut
		default:
			keysIn, errIn := compileSortKeys(stmt.OrderBy, pre.Schema())
			if errIn != nil {
				return nil, errOut
			}
			sorted := &relation.Sort{Input: pre, Keys: keysIn}
			op, err = planProjection(sorted, stmt)
			if err != nil {
				return nil, err
			}
		}
	}
	if stmt.Limit >= 0 || stmt.Offset > 0 {
		op = &relation.Limit{Input: op, N: stmt.Limit, Offset: stmt.Offset}
	}
	return op, nil
}

// planFromWhere is the rule-based FROM+WHERE block: joins in statement
// order, then AttachConfidence when referenced, then the WHERE filter.
func planFromWhere(cat *relation.Catalog, stmt *SelectStmt, asOf int64) (relation.Operator, error) {
	// FROM clause: base table, then joins.
	op, err := planTable(cat, stmt.From, asOf)
	if err != nil {
		return nil, err
	}
	for _, j := range stmt.Joins {
		right, err := planTable(cat, j.Table, asOf)
		if err != nil {
			return nil, err
		}
		on, err := resolveSubqueries(cat, j.On, asOf)
		if err != nil {
			return nil, err
		}
		op, err = planJoin(op, right, on)
		if err != nil {
			return nil, err
		}
	}

	// The _confidence pseudo-column: when the statement references it,
	// attach each row's lineage probability (under the catalog's current
	// confidences) as an extra REAL column right after the FROM block —
	// the same value the policy layer computes for the final results of
	// a select-project query.
	if stmtReferencesConfidence(stmt) {
		op = &relation.AttachConfidence{Input: op, Assign: cat}
	}

	// WHERE (IN-subqueries are materialized first; they must be
	// uncorrelated — no references to the outer query's columns).
	where, err := resolveSubqueries(cat, stmt.Where, asOf)
	if err != nil {
		return nil, err
	}
	if where != nil {
		pred, err := compileExpr(where, op.Schema())
		if err != nil {
			return nil, err
		}
		// Over a single table the filter moves into the leaf, which
		// answers an equality conjunct from a hash index when one exists.
		op = relation.Filter(op, pred)
	}
	return op, nil
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
		if s.Distinct || len(s.GroupBy) > 0 || s.Having != nil {
			return true
		}
		if s.SetOp == SetUnion || s.SetOp == SetIntersect || s.SetOp == SetExcept {
			return true
		}
		for _, it := range s.Items {
			if !it.Star && containsAgg(it.Expr) {
				return true
			}
		}
		refs := []TableRef{s.From}
		for _, j := range s.Joins {
			refs = append(refs, j.Table)
		}
		for _, tr := range refs {
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

// stmtReferencesConfidence reports whether any expression of the single
// select block mentions the _confidence pseudo-column.
func stmtReferencesConfidence(stmt *SelectStmt) bool {
	found := false
	check := func(e ExprNode) {
		walkExpr(e, func(n ExprNode) {
			if id, ok := n.(*Ident); ok && strings.EqualFold(id.Name, relation.ConfidenceColumn) {
				found = true
			}
		})
	}
	for _, it := range stmt.Items {
		if !it.Star {
			check(it.Expr)
		}
	}
	check(stmt.Where)
	for _, g := range stmt.GroupBy {
		check(g)
	}
	check(stmt.Having)
	for _, o := range stmt.OrderBy {
		check(o.Expr)
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

func planTable(cat *relation.Catalog, tr TableRef, asOf int64) (relation.Operator, error) {
	if tr.Sub != nil {
		// Derived table: plan the subquery and re-qualify its output
		// columns with the mandatory alias.
		sub, _, err := PlanDetailedAt(cat, tr.Sub, asOf)
		if err != nil {
			return nil, err
		}
		return &relation.Rename{Input: sub, Alias: tr.Alias}, nil
	}
	tab, err := cat.Table(tr.Name)
	if err != nil {
		return nil, errAt(tr.Tok, "%v", err)
	}
	var op relation.Operator = tab.Scan()
	if tr.Alias != "" {
		op = &relation.Rename{Input: op, Alias: tr.Alias}
	}
	return op, nil
}

// resolvedIn is the planner-internal replacement for an IN-subquery: the
// subquery has been evaluated and its single output column materialized
// into a key set.
type resolvedIn struct {
	Child  ExprNode
	Set    map[string]bool
	Negate bool
	Label  string
}

func (*resolvedIn) exprNode() {}

// SQL implements Node.
func (e *resolvedIn) SQL() string {
	op := " IN "
	if e.Negate {
		op = " NOT IN "
	}
	return e.Child.SQL() + op + e.Label
}

// resolveSubqueries rewrites every IN (SELECT ...) under e into a
// resolvedIn node by running the subquery at committed version asOf
// (asOf <= 0: the latest committed state). Subqueries must be
// uncorrelated and produce exactly one column. A nil input stays nil.
func resolveSubqueries(cat *relation.Catalog, e ExprNode, asOf int64) (ExprNode, error) {
	if e == nil {
		return nil, nil
	}
	switch n := e.(type) {
	case *InExpr:
		if n.Sub == nil {
			return n, nil
		}
		sub, _, rows, err := planAndRun(cat, n.Sub, asOf)
		if err != nil {
			return nil, err
		}
		if sub.Schema().Len() != 1 {
			return nil, errAt(n.Tok, "IN subquery must produce exactly one column, got %d", sub.Schema().Len())
		}
		set := make(map[string]bool, len(rows))
		for _, r := range rows {
			if r.Values[0].IsNull() {
				continue // documented simplification: set NULLs ignored
			}
			set[r.Values[0].Key()] = true
		}
		return &resolvedIn{Child: n.Child, Set: set, Negate: n.Negate, Label: "(" + n.Sub.SQL() + ")"}, nil
	case *BinaryExpr:
		l, err := resolveSubqueries(cat, n.Left, asOf)
		if err != nil {
			return nil, err
		}
		r, err := resolveSubqueries(cat, n.Right, asOf)
		if err != nil {
			return nil, err
		}
		if l == n.Left && r == n.Right {
			return n, nil
		}
		cp := *n
		cp.Left, cp.Right = l, r
		return &cp, nil
	case *UnaryExpr:
		c, err := resolveSubqueries(cat, n.Child, asOf)
		if err != nil {
			return nil, err
		}
		if c == n.Child {
			return n, nil
		}
		cp := *n
		cp.Child = c
		return &cp, nil
	case *IsNullExpr:
		c, err := resolveSubqueries(cat, n.Child, asOf)
		if err != nil {
			return nil, err
		}
		if c == n.Child {
			return n, nil
		}
		cp := *n
		cp.Child = c
		return &cp, nil
	default:
		return e, nil
	}
}

// planJoin prefers a hash join when the ON condition is a conjunction of
// equality comparisons between one column of each side; otherwise it
// falls back to a nested-loop join over the concatenated schema.
func planJoin(left, right relation.Operator, on ExprNode) (relation.Operator, error) {
	if on == nil {
		return &relation.NestedLoopJoin{Left: left, Right: right}, nil
	}
	if lk, rk, ok := equiJoinKeys(on, left.Schema(), right.Schema()); ok {
		return &relation.HashJoin{Left: left, Right: right, LeftKeys: lk, RightKeys: rk}, nil
	}
	combined := left.Schema().Concat(right.Schema())
	pred, err := compileExpr(on, combined)
	if err != nil {
		return nil, err
	}
	return &relation.NestedLoopJoin{Left: left, Right: right, Pred: pred}, nil
}

// equiJoinKeys detects "a.x = b.y [AND ...]" patterns and resolves the
// column indices against the two input schemas.
func equiJoinKeys(on ExprNode, ls, rs *relation.Schema) (lk, rk []int, ok bool) {
	conjuncts := flattenAnd(on)
	for _, c := range conjuncts {
		be, isBin := c.(*BinaryExpr)
		if !isBin || be.Op != "=" {
			return nil, nil, false
		}
		li, lok := be.Left.(*Ident)
		ri, rok := be.Right.(*Ident)
		if !lok || !rok {
			return nil, nil, false
		}
		lidx, lerr := ls.Resolve(li.Qualifier, li.Name)
		ridx, rerr := rs.Resolve(ri.Qualifier, ri.Name)
		if lerr != nil || rerr != nil {
			// Maybe the identifiers are swapped across sides.
			lidx, lerr = ls.Resolve(ri.Qualifier, ri.Name)
			ridx, rerr = rs.Resolve(li.Qualifier, li.Name)
		}
		if lerr != nil || rerr != nil {
			return nil, nil, false
		}
		// Hash joins match on value keys; only types whose keys agree
		// exactly with Compare-equality qualify. A mismatched pair (e.g.
		// TEXT = INT) must take the nested-loop path so it raises the
		// same comparison error a WHERE clause would.
		if !relation.HashJoinableTypes(ls.Columns[lidx].Type, rs.Columns[ridx].Type) {
			return nil, nil, false
		}
		lk = append(lk, lidx)
		rk = append(rk, ridx)
	}
	return lk, rk, len(lk) > 0
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
	if stmt.Having != nil {
		collect(stmt.Having)
	}

	specs := make([]relation.AggSpec, len(aggCalls))
	for i, fc := range aggCalls {
		spec := relation.AggSpec{}
		switch fc.Name {
		case "COUNT":
			spec.Kind = relation.AggCount
		case "SUM":
			spec.Kind = relation.AggSum
		case "AVG":
			spec.Kind = relation.AggAvg
		case "MIN":
			spec.Kind = relation.AggMin
		case "MAX":
			spec.Kind = relation.AggMax
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

	// Rewriter: map an AST expression to a relation.Expr over the
	// aggregate's output schema.
	var rewrite func(e ExprNode) (relation.Expr, error)
	rewrite = func(e ExprNode) (relation.Expr, error) {
		if fc, ok := e.(*FuncCall); ok {
			idx := len(groupExprs) + aggIndex[canonical(fc)]
			return &relation.ColRef{Index: idx, Col: aggSchema.Columns[idx]}, nil
		}
		key := canonical(e)
		for i, gk := range groupKeys {
			if key == gk {
				return &relation.ColRef{Index: i, Col: aggSchema.Columns[i]}, nil
			}
		}
		switch n := e.(type) {
		case *Ident:
			return nil, errAt(n.Tok, "column %s must appear in GROUP BY or inside an aggregate", n.SQL())
		case *Lit:
			return compileExpr(n, aggSchema)
		case *BinaryExpr:
			l, err := rewrite(n.Left)
			if err != nil {
				return nil, err
			}
			r, err := rewrite(n.Right)
			if err != nil {
				return nil, err
			}
			op, err := binaryOp(n)
			if err != nil {
				return nil, err
			}
			return &relation.Binary{Op: op, Left: l, Right: r}, nil
		case *UnaryExpr:
			c, err := rewrite(n.Child)
			if err != nil {
				return nil, err
			}
			if n.Op == "-" {
				return &relation.Unary{Op: relation.OpNeg, Child: c}, nil
			}
			return &relation.Unary{Op: relation.OpNot, Child: c}, nil
		case *IsNullExpr:
			c, err := rewrite(n.Child)
			if err != nil {
				return nil, err
			}
			op := relation.OpIsNull
			if n.Negate {
				op = relation.OpIsNotNull
			}
			return &relation.Unary{Op: op, Child: c}, nil
		default:
			return nil, errAt(Token{}, "unsupported expression %s over aggregate output", e.SQL())
		}
	}

	var out relation.Operator = agg
	if stmt.Having != nil {
		pred, err := rewrite(stmt.Having)
		if err != nil {
			return nil, err
		}
		out = &relation.Select{Input: out, Pred: pred}
	}

	exprs := make([]relation.Expr, len(stmt.Items))
	names := make([]string, len(stmt.Items))
	for i, it := range stmt.Items {
		e, err := rewrite(it.Expr)
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
func canonical(e ExprNode) string {
	var b strings.Builder
	writeCanonical(&b, e)
	return b.String()
}

func writeCanonical(b *strings.Builder, e ExprNode) {
	switch n := e.(type) {
	case *Ident:
		b.WriteString(strings.ToLower(n.SQL()))
	case *BinaryExpr:
		b.WriteString("(")
		writeCanonical(b, n.Left)
		b.WriteString(" " + n.Op + " ")
		writeCanonical(b, n.Right)
		b.WriteString(")")
	case *UnaryExpr:
		b.WriteString(n.Op)
		if n.Op == "NOT" {
			b.WriteString(" ")
		}
		writeCanonical(b, n.Child)
	case *IsNullExpr:
		writeCanonical(b, n.Child)
		if n.Negate {
			b.WriteString(" IS NOT NULL")
		} else {
			b.WriteString(" IS NULL")
		}
	case *LikeExpr:
		writeCanonical(b, n.Child)
		if n.Negate {
			b.WriteString(" NOT")
		}
		// The pattern is a literal: case preserved.
		b.WriteString(" LIKE '" + n.Pattern + "'")
	case *InExpr:
		writeCanonical(b, n.Child)
		if n.Negate {
			b.WriteString(" NOT")
		}
		b.WriteString(" IN (")
		for i, item := range n.List {
			if i > 0 {
				b.WriteString(", ")
			}
			writeCanonical(b, item)
		}
		b.WriteString(")")
	case *BetweenExpr:
		writeCanonical(b, n.Child)
		if n.Negate {
			b.WriteString(" NOT")
		}
		b.WriteString(" BETWEEN ")
		writeCanonical(b, n.Lo)
		b.WriteString(" AND ")
		writeCanonical(b, n.Hi)
	case *FuncCall:
		b.WriteString(n.Name + "(")
		if n.Star {
			b.WriteString("*")
		} else {
			writeCanonical(b, n.Arg)
		}
		b.WriteString(")")
	default:
		// Literals and anything unrecognized render verbatim: never
		// case-fold a value.
		b.WriteString(e.SQL())
	}
}

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
	case *resolvedIn:
		walkExpr(n.Child, f)
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

func binaryOp(n *BinaryExpr) (relation.BinaryOp, error) {
	switch n.Op {
	case "=":
		return relation.OpEq, nil
	case "<>":
		return relation.OpNe, nil
	case "<":
		return relation.OpLt, nil
	case "<=":
		return relation.OpLe, nil
	case ">":
		return relation.OpGt, nil
	case ">=":
		return relation.OpGe, nil
	case "AND":
		return relation.OpAnd, nil
	case "OR":
		return relation.OpOr, nil
	case "+":
		return relation.OpAdd, nil
	case "-":
		return relation.OpSub, nil
	case "*":
		return relation.OpMul, nil
	case "/":
		return relation.OpDiv, nil
	}
	return 0, errAt(n.Tok, "unsupported operator %q", n.Op)
}

// compileExpr lowers an AST expression (no aggregates) onto a schema.
func compileExpr(e ExprNode, schema *relation.Schema) (relation.Expr, error) {
	switch n := e.(type) {
	case *Ident:
		cr, err := relation.NewColRef(schema, n.Qualifier, n.Name)
		if err != nil {
			return nil, errAt(n.Tok, "%v", err)
		}
		return cr, nil
	case *Lit:
		return relation.Const{Value: litValue(n)}, nil
	case *BinaryExpr:
		l, err := compileExpr(n.Left, schema)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(n.Right, schema)
		if err != nil {
			return nil, err
		}
		op, err := binaryOp(n)
		if err != nil {
			return nil, err
		}
		return &relation.Binary{Op: op, Left: l, Right: r}, nil
	case *UnaryExpr:
		c, err := compileExpr(n.Child, schema)
		if err != nil {
			return nil, err
		}
		if n.Op == "-" {
			return &relation.Unary{Op: relation.OpNeg, Child: c}, nil
		}
		return &relation.Unary{Op: relation.OpNot, Child: c}, nil
	case *IsNullExpr:
		c, err := compileExpr(n.Child, schema)
		if err != nil {
			return nil, err
		}
		op := relation.OpIsNull
		if n.Negate {
			op = relation.OpIsNotNull
		}
		return &relation.Unary{Op: op, Child: c}, nil
	case *LikeExpr:
		c, err := compileExpr(n.Child, schema)
		if err != nil {
			return nil, err
		}
		return &relation.Like{Child: c, Pattern: n.Pattern, Negate: n.Negate}, nil
	case *InExpr:
		if n.Sub != nil {
			return nil, errAt(n.Tok, "IN subqueries are only supported in WHERE and JOIN..ON conditions")
		}
		c, err := compileExpr(n.Child, schema)
		if err != nil {
			return nil, err
		}
		// x IN (a,b) compiles to x=a OR x=b; NOT IN negates the whole.
		var pred relation.Expr
		for _, item := range n.List {
			ie, err := compileExpr(item, schema)
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
		c, err := compileExpr(n.Child, schema)
		if err != nil {
			return nil, err
		}
		lo, err := compileExpr(n.Lo, schema)
		if err != nil {
			return nil, err
		}
		hi, err := compileExpr(n.Hi, schema)
		if err != nil {
			return nil, err
		}
		var pred relation.Expr = &relation.Binary{
			Op:   relation.OpAnd,
			Left: &relation.Binary{Op: relation.OpGe, Left: c, Right: lo},
			Right: &relation.Binary{
				Op: relation.OpLe, Left: c, Right: hi,
			},
		}
		if n.Negate {
			pred = &relation.Unary{Op: relation.OpNot, Child: pred}
		}
		return pred, nil
	case *resolvedIn:
		c, err := compileExpr(n.Child, schema)
		if err != nil {
			return nil, err
		}
		return &relation.InSet{Child: c, Set: n.Set, Negate: n.Negate, Label: n.Label}, nil
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
