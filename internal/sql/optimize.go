package sql

import (
	"fmt"

	"pcqe/internal/relation"
)

// This file is the FROM+WHERE planner: statistics-driven join ordering
// with predicate and projection pushdown, total over the supported
// grammar. A base table is a relation with statistics and indexes, a
// derived table one with neither; a single relation is the n = 1 case of
// the same code, planned without collecting statistics because there is
// no order or algorithm to choose.

// maxDPRels bounds the dynamic-programming join-order search; beyond
// it the planner switches to the greedy heuristic directly (the DP
// table has 2^n entries).
const maxDPRels = 10

// dpNodeBudget caps the number of search-loop iterations before the
// enumeration degrades to the greedy order.
const dpNodeBudget = 1 << 16

// budgetState is the planner's cooperative search budget: the
// join-order enumeration is exponential in the number of relations, so
// every pass through the subset loop checks in and the search degrades
// to the greedy heuristic when the budget is exhausted.
type budgetState struct {
	nodes, maxNodes int
	exhausted       bool
}

// poll consumes one unit of search budget and reports whether the
// search may continue.
func (bs *budgetState) poll() bool {
	bs.nodes++
	if bs.nodes > bs.maxNodes {
		bs.exhausted = true
	}
	return !bs.exhausted
}

// planRel is one relation of the join, carrying its operator (for a
// base table the access-path leaf, with the pushed-down filter and the
// pruned column set inside it) and cardinality estimates.
type planRel struct {
	op     relation.Operator
	schema *relation.Schema // schema of op (post-rename, post-prune)
	// tab and stats are nil for a derived table, stats also for a base
	// table planned alone: estimates then rest on the row count and the
	// textbook selectivities, and no index join can probe the relation.
	tab   *relation.Table
	stats *relation.TableStats
	rows  float64 // estimated output rows after pushed filters
	cost  float64 // estimated rows read (base rows, or fewer via index)
	keep  []int   // schema index -> base column index (identity sans pruning)
}

func (r *planRel) baseCol(schemaIdx int) int {
	if schemaIdx < 0 || schemaIdx >= len(r.keep) {
		return -1
	}
	return r.keep[schemaIdx]
}

// colStats returns the collected statistics of a column (by schema
// index), nil when the relation has none.
func (r *planRel) colStats(schemaIdx int) *relation.ColumnStats {
	base := r.baseCol(schemaIdx)
	if r.stats == nil || base < 0 || base >= len(r.stats.Cols) {
		return nil
	}
	return &r.stats.Cols[base]
}

// distinctOf estimates the distinct count of a column (by schema
// index), capped by the relation's current row estimate; without
// statistics every row counts as its own value.
func (r *planRel) distinctOf(schemaIdx int) float64 {
	d := r.rows
	if r.stats != nil {
		d = r.stats.DistinctOf(r.baseCol(schemaIdx))
	}
	if d > r.rows && r.rows >= 1 {
		d = r.rows
	}
	if d < 1 {
		d = 1
	}
	return d
}

// colOrigin identifies an output column by (relation, schema index
// within that relation's pruned schema).
type colOrigin struct {
	rel, idx int
}

// conjunct is one top-level AND-term of the combined WHERE+ON
// condition, with the set of relations it references.
type conjunct struct {
	expr ExprNode
	mask uint
	// eqL/eqR are set when the conjunct is a pure "ident = ident"
	// across two relations whose column types are hash-joinable:
	// (relation, schema index) of each side.
	eq       bool
	eqL, eqR colOrigin
}

// joinNode is a DP entry: the best plan found for a subset of the
// relations.
type joinNode struct {
	op      relation.Operator
	mask    uint
	rows    float64
	cost    float64
	schema  *relation.Schema
	origins []colOrigin
}

// planRelation turns one FROM entry into a relation of the join block.
func (p *planner) planRelation(tr TableRef, withStats bool) (*planRel, error) {
	rel := &planRel{}
	if tr.Sub != nil {
		// Derived table: the sub-plan's columns, re-qualified with the
		// mandatory alias, and its row estimate.
		sub, rows, err := p.stmt(tr.Sub)
		if err != nil {
			return nil, err
		}
		rel.op, rel.rows = &relation.Rename{Input: sub, Alias: tr.Alias}, rows
	} else {
		tab, err := p.cat.Table(tr.Name)
		if err != nil {
			return nil, errAt(tr.Tok, "%v", err)
		}
		rel.op, rel.tab, rel.rows = tab.Scan(), tab, float64(tab.Len())
		if tr.Alias != "" {
			rel.op = &relation.Rename{Input: rel.op, Alias: tr.Alias}
		}
		if withStats {
			rel.stats = tab.Stats()
			rel.rows = float64(rel.stats.Rows)
		}
	}
	rel.schema, rel.cost = rel.op.Schema(), rel.rows
	rel.keep = make([]int, rel.schema.Len())
	for c := range rel.keep {
		rel.keep[c] = c
	}
	return rel, nil
}

// planJoinBlock plans a select block's FROM and WHERE clauses: every
// conjunct of WHERE and the ON clauses is applied at the lowest point
// that covers the relations it reads, unreferenced columns are dropped
// at the leaves, the join order and algorithms are searched by cost, and
// the output has the relations' columns in FROM order, followed by
// _confidence when the block references it.
func planJoinBlock(p *planner, stmt *SelectStmt) (relation.Operator, float64, error) {
	refs := fromTables(stmt)
	rels := make([]*planRel, len(refs))
	var from *relation.Schema // the relations' schemas concatenated in FROM order
	var owners []colOrigin    // from's columns as (relation, schema index)
	for ri, tr := range refs {
		rel, err := p.planRelation(tr, len(refs) > 1)
		if err != nil {
			return nil, 0, err
		}
		if rels[ri] = rel; ri == 0 {
			from = rel.schema
		} else {
			from = from.Concat(rel.schema)
		}
		for idx := range rel.schema.Columns {
			owners = append(owners, colOrigin{ri, idx})
		}
	}

	// note records the columns e reads as referenced in their relations
	// and returns the set of relations it reads; conf reports a reference
	// to _confidence, which no relation owns, and ok is false when some
	// other identifier is not exactly one column of from.
	refsConf := stmtReferencesConfidence(stmt)
	referenced := make([][]bool, len(rels)) // per relation, per column
	for ri, rel := range rels {
		referenced[ri] = make([]bool, rel.schema.Len())
	}
	note := func(e ExprNode) (mask uint, conf, ok bool) {
		ok = true
		walkExpr(e, func(n ExprNode) {
			id, isIdent := n.(*Ident)
			if !isIdent {
				return
			}
			if refsConf && isConfidenceRef(id) {
				conf = true
				return
			}
			at, err := from.Resolve(id.Qualifier, id.Name)
			if err != nil {
				ok = false
				return
			}
			referenced[owners[at].rel][owners[at].idx] = true
			mask |= 1 << uint(owners[at].rel)
		})
		return mask, conf, ok
	}

	// Combined condition: WHERE plus every ON clause, IN-subqueries
	// materialized, flattened into conjuncts. Each must compile against
	// the FROM schema: an unknown or ambiguous column, or an aggregate,
	// fails the statement here, with the error of that compilation. The
	// conjuncts on _confidence wait for the attached column.
	var conjs []conjunct
	var onConf []ExprNode
	full := from
	if refsConf {
		full = withConfidenceColumn(from)
	}
	conds := []ExprNode{stmt.Where}
	for _, j := range stmt.Joins {
		conds = append(conds, j.On)
	}
	for _, cond := range conds {
		cond, err := p.resolveSubqueries(cond)
		if err != nil {
			return nil, 0, err
		}
		if cond == nil {
			continue
		}
		for _, e := range flattenAnd(cond) {
			if _, err := compileExpr(e, full); err != nil {
				return nil, 0, err
			}
			mask, conf, _ := note(e)
			if len(rels) == 1 {
				mask = 1 // constants filter at the one leaf too
			}
			if conf {
				onConf = append(onConf, e)
			} else {
				conjs = append(conjs, conjunct{expr: e, mask: mask})
			}
		}
	}

	// Referenced columns across the rest of the statement, for pruning.
	// An identifier that resolves nowhere is an error the compilation of
	// its clause reports (so nothing is pruned from under it) — except in
	// ORDER BY, where it may name an output alias: compileSortKeys
	// accepts or rejects it.
	prune := true
	mustResolve := func(e ExprNode) {
		if _, _, ok := note(e); !ok {
			prune = false
		}
	}
	for _, it := range stmt.Items {
		if it.Star {
			prune = false // SELECT * reads every column
		}
		mustResolve(it.Expr)
	}
	for _, g := range stmt.GroupBy {
		mustResolve(g)
	}
	mustResolve(stmt.Having)
	for _, o := range stmt.OrderBy {
		note(o.Expr)
	}

	// Predicate pushdown: single-relation conjuncts filter at the leaf,
	// through the index rewrite when one applies. Projection pushdown:
	// the leaf keeps only referenced columns; join keys and filters are
	// referenced by construction.
	for ri, rel := range rels {
		var push []ExprNode
		for _, c := range conjs {
			if c.mask == 1<<uint(ri) {
				push = append(push, c.expr)
			}
		}
		if len(push) > 0 {
			pred, err := compileExpr(joinAndAST(push), rel.schema)
			if err != nil {
				return nil, 0, err
			}
			rel.op = relation.Filter(rel.op, pred)
			rel.rows *= conjunctionSelectivity(push, rel)
			if relation.ProbesIndex(rel.op) {
				rel.cost = rel.rows
			}
		}
		keep := make([]int, 0, rel.schema.Len())
		for idx, used := range referenced[ri] {
			if used {
				keep = append(keep, idx)
			}
		}
		if prune && len(keep) < rel.schema.Len() {
			rel.op = relation.Prune(rel.op, keep)
			rel.schema = rel.op.Schema()
			rel.keep = keep
		}
		p.info.Notes[rel.op] = fmt.Sprintf("rows≈%.0f", rel.rows)
	}

	// Classify equi-join conjuncts against the (possibly pruned)
	// relation schemas.
	for i := range conjs {
		classifyEquiConjunct(&conjs[i], rels)
	}
	root := searchJoinOrder(rels, conjs, p.info.Notes)

	// Residual conjuncts that reference no relation (constant folds):
	// apply on top.
	op := root.op
	var consts []ExprNode
	for _, c := range conjs {
		if c.mask == 0 {
			consts = append(consts, c.expr)
		}
	}
	if len(consts) > 0 {
		pred, err := compileExpr(joinAndAST(consts), root.schema)
		if err != nil {
			return nil, 0, err
		}
		op = &relation.Select{Input: op, Pred: pred}
	}

	// Restore statement column order: downstream compilation (and
	// SELECT *) expects the relations' columns concatenated in FROM
	// order, which the join search may have permuted.
	offset := make([]int, len(rels)+1) // of each relation's columns in FROM order
	for ri, rel := range rels {
		offset[ri+1] = offset[ri] + rel.schema.Len()
	}
	indices := make([]int, len(root.origins))
	identity := true
	for i, o := range root.origins {
		indices[offset[o.rel]+o.idx] = i
		identity = identity && offset[o.rel]+o.idx == i
	}
	if !identity {
		op = &relation.ColumnMap{Input: op, Indices: indices}
	}

	// The _confidence pseudo-column: each row's lineage probability
	// (under the catalog's confidences) as an extra REAL column after the
	// whole FROM block — the value the policy layer computes for the
	// final results of a select-project query — and above it the
	// conjuncts that read it.
	if refsConf {
		op = &relation.AttachConfidence{Input: op, Catalog: p.cat}
		if len(onConf) > 0 {
			pred, err := compileExpr(joinAndAST(onConf), op.Schema())
			if err != nil {
				return nil, 0, err
			}
			op = &relation.Select{Input: op, Pred: pred}
		}
	}
	return op, root.rows, nil
}

// searchJoinOrder picks the join order and algorithms: dynamic
// programming over relation subsets when small enough, greedy otherwise
// or when the budget runs out. The subset loop is a 1<<n enumeration,
// hence the budget checkpoints. One relation is its own best plan.
func searchJoinOrder(rels []*planRel, conjs []conjunct, notes map[relation.Operator]string) *joinNode {
	n := len(rels)
	bs := &budgetState{maxNodes: dpNodeBudget}
	if n <= maxDPRels {
		best := make([]*joinNode, 1<<uint(n))
		for ri := range rels {
			best[1<<uint(ri)] = leafNode(ri, rels)
		}
		complete := true
		for mask := uint(1); mask < uint(1)<<uint(n); mask++ {
			if !bs.poll() {
				complete = false
				break
			}
			if best[mask] != nil && mask&(mask-1) == 0 {
				continue // leaf
			}
			for bit := uint(0); bit < uint(n); bit++ {
				b := uint(1) << bit
				if mask&b == 0 || mask == b {
					continue
				}
				left := best[mask&^b]
				if left == nil {
					continue
				}
				cand := joinStep(left, int(bit), rels, conjs, notes)
				if best[mask] == nil || cand.cost < best[mask].cost {
					best[mask] = cand
				}
			}
		}
		if complete {
			return best[(uint(1)<<uint(n))-1]
		}
	}
	return greedyOrder(bs, rels, conjs, notes)
}

// classifyEquiConjunct marks a conjunct as a hash-joinable equi-join
// when it is a bare "ident = ident" across two distinct relations with
// hash-compatible column types.
func classifyEquiConjunct(c *conjunct, rels []*planRel) {
	be, ok := c.expr.(*BinaryExpr)
	if !ok || be.Op != "=" {
		return
	}
	li, lok := be.Left.(*Ident)
	ri, rok := be.Right.(*Ident)
	if !lok || !rok {
		return
	}
	lo, lok := resolveIn(li, rels)
	ro, rok := resolveIn(ri, rels)
	if !lok || !rok || lo.rel == ro.rel {
		return
	}
	lt := rels[lo.rel].schema.Columns[lo.idx].Type
	rt := rels[ro.rel].schema.Columns[ro.idx].Type
	if !relation.HashJoinableTypes(lt, rt) {
		return
	}
	c.eq, c.eqL, c.eqR = true, lo, ro
}

func resolveIn(id *Ident, rels []*planRel) (colOrigin, bool) {
	found := colOrigin{rel: -1}
	n := 0
	for ri, rel := range rels {
		if idx, err := rel.schema.Resolve(id.Qualifier, id.Name); err == nil {
			found = colOrigin{ri, idx}
			n++
		}
	}
	return found, n == 1
}

func leafNode(ri int, rels []*planRel) *joinNode {
	rel := rels[ri]
	origins := make([]colOrigin, rel.schema.Len())
	for i := range origins {
		origins[i] = colOrigin{ri, i}
	}
	return &joinNode{
		op: rel.op, mask: 1 << uint(ri), rows: rel.rows, cost: rel.cost,
		schema: rel.schema, origins: origins,
	}
}

// joinStep joins a DP node with one more relation, applying every
// conjunct first covered by the combined subset and choosing hash
// versus nested-loop join (and build side) by estimated cost.
func joinStep(left *joinNode, ri int, rels []*planRel, conjs []conjunct, notes map[relation.Operator]string) *joinNode {
	rel := rels[ri]
	bit := uint(1) << uint(ri)
	newmask := left.mask | bit

	// Conjuncts newly covered by this subset.
	var keysL, keysR []int // key column indices in left node / right rel
	var keyExprs []ExprNode
	var residual []ExprNode
	sel := 1.0
	for _, c := range conjs {
		if c.mask&bit == 0 || c.mask&^newmask != 0 || c.mask == bit || c.mask == 0 {
			continue
		}
		if c.eq && (c.eqL.rel == ri || c.eqR.rel == ri) {
			lo, ro := c.eqL, c.eqR
			if ro.rel != ri {
				lo, ro = ro, lo
			}
			li := originIndex(left.origins, lo)
			if li >= 0 {
				keysL = append(keysL, li)
				keysR = append(keysR, ro.idx)
				keyExprs = append(keyExprs, c.expr)
				dl := rels[lo.rel].distinctOf(lo.idx)
				dr := rel.distinctOf(ro.idx)
				if dr > dl {
					dl = dr
				}
				sel /= dl
				continue
			}
		}
		residual = append(residual, c.expr)
		sel *= joinSelectivity(c.expr)
	}

	outRows := left.rows * rel.rows * sel
	if outRows < 1 {
		outRows = 1
	}

	// A nested-loop pair evaluates a compiled predicate; a hash probe is
	// one key lookup. Weight the former so hash wins whenever an equi
	// key exists and the inputs aren't trivially small.
	const nlCompareCost = 4.0
	costNL := left.cost + rel.cost + nlCompareCost*left.rows*rel.rows
	costHash := left.cost + rel.cost + left.rows + rel.rows + outRows
	// An index nested-loop join reads nothing of rel up front: each left
	// row probes rel's hash index on a join column, fetches the rows
	// stored under its key (rel's filter runs per fetched row) and emits
	// the matches as a hash join does. A probe builds a key and looks it
	// up, a fetched row sits behind three dependent pointers: both are
	// priced in scanned-and-rejected rows, as measured (DESIGN.md §10).
	const inlProbeCost, inlFetchCost = 8.0, 12.0
	inlKey, costINL := -1, 0.0
	for k, col := range keysR {
		if rel.tab == nil {
			continue // a derived table has no index to probe
		}
		base := rel.baseCol(col)
		if _, ok := rel.tab.IndexOn(base); !ok {
			continue
		}
		fetched := left.rows * float64(rel.stats.Rows) / rel.stats.DistinctOf(base)
		if c := left.cost + inlProbeCost*left.rows + inlFetchCost*fetched + outRows; inlKey < 0 || c < costINL {
			inlKey, costINL = k, c
		}
	}

	node := &joinNode{mask: newmask, rows: outRows}
	useINL := inlKey >= 0 && costINL <= costHash && costINL <= costNL
	// HashJoin builds its map on Right and NestedLoopJoin materializes
	// Right in Open: the smaller input goes there.
	relFirst := !useINL && rel.rows > left.rows
	l, r, kl, kr := left.op, rel.op, keysL, keysR
	if relFirst {
		l, r, kl, kr = r, l, kr, kl
	}
	var nl *relation.NestedLoopJoin
	switch {
	case useINL:
		node.cost = costINL
		node.op = &relation.IndexJoin{Outer: l, Inner: r, OuterKey: kl[inlKey], InnerKey: kr[inlKey]}
		// Further key pairs filter the matches.
		for k, e := range keyExprs {
			if k != inlKey {
				residual = append(residual, e)
			}
		}
	case len(keysL) > 0 && costHash <= costNL:
		node.cost = costHash
		node.op = &relation.HashJoin{Left: l, Right: r, LeftKeys: kl, RightKeys: kr}
	default:
		node.cost = costNL
		residual = append(residual, keyExprs...)
		nl = &relation.NestedLoopJoin{Left: l, Right: r}
		node.op = nl
	}
	if relFirst {
		node.schema = rel.schema.Concat(left.schema)
		node.origins = concatOrigins(leafNode(ri, rels).origins, left.origins)
	} else {
		node.schema = left.schema.Concat(rel.schema)
		node.origins = concatOrigins(left.origins, leafNode(ri, rels).origins)
	}
	notes[node.op] = fmt.Sprintf("rows≈%.0f cost≈%.0f", outRows, node.cost)
	if len(residual) > 0 {
		// Every conjunct compiled against the FROM schema up front, and
		// node.schema holds the columns it reads: this cannot fail.
		if pred, _ := compileExpr(joinAndAST(residual), node.schema); nl != nil {
			nl.Pred = pred
		} else {
			node.op = &relation.Select{Input: node.op, Pred: pred}
		}
	}
	return node
}

func concatOrigins(a, b []colOrigin) []colOrigin {
	out := make([]colOrigin, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

func originIndex(origins []colOrigin, o colOrigin) int {
	for i, x := range origins {
		if x == o {
			return i
		}
	}
	return -1
}

// greedyOrder is the fallback join-order heuristic: start from the
// smallest relation, repeatedly absorb the relation that minimizes the
// joined cardinality.
func greedyOrder(bs *budgetState, rels []*planRel, conjs []conjunct, notes map[relation.Operator]string) *joinNode {
	start := 0
	for ri := range rels {
		if rels[ri].rows < rels[start].rows {
			start = ri
		}
	}
	node := leafNode(start, rels)
	remaining := map[int]bool{}
	for ri := range rels {
		if ri != start {
			remaining[ri] = true
		}
	}
	for len(remaining) > 0 {
		bs.poll()
		bestRi, bestCost := -1, 0.0
		var bestNode *joinNode
		for ri := range remaining {
			cand := joinStep(node, ri, rels, conjs, notes)
			// Prefer connected joins strongly: a cross join only when
			// nothing shares a predicate with the current subset.
			cost := cand.cost
			if !connected(node.mask, ri, conjs) {
				cost *= 1e6
			}
			if bestRi < 0 || cost < bestCost {
				bestRi, bestCost, bestNode = ri, cost, cand
			}
		}
		node = bestNode
		delete(remaining, bestRi)
	}
	return node
}

func connected(mask uint, ri int, conjs []conjunct) bool {
	bit := uint(1) << uint(ri)
	for _, c := range conjs {
		if c.mask&bit != 0 && c.mask&mask != 0 {
			return true
		}
	}
	return false
}

func joinAndAST(es []ExprNode) ExprNode {
	out := es[0]
	for _, e := range es[1:] {
		out = &BinaryExpr{Op: "AND", Left: out, Right: e}
	}
	return out
}

// filterSelectivity estimates the fraction of a relation's rows passing
// a single-relation predicate, using column statistics where the
// predicate shape allows and textbook constants elsewhere.
func filterSelectivity(e ExprNode, rel *planRel) float64 {
	switch n := e.(type) {
	case *BinaryExpr:
		switch n.Op {
		case "AND":
			return conjunctionSelectivity(flattenAnd(n), rel)
		case "OR":
			a, b := filterSelectivity(n.Left, rel), filterSelectivity(n.Right, rel)
			return clampSel(a + b - a*b)
		case "=":
			if id, _ := identConstSides(n); id != nil {
				if idx, err := rel.schema.Resolve(id.Qualifier, id.Name); err == nil {
					return clampSel(1 / rel.distinctOf(idx))
				}
			}
			return 0.1
		case "<>":
			if id, _ := identConstSides(n); id != nil {
				if idx, err := rel.schema.Resolve(id.Qualifier, id.Name); err == nil {
					return clampSel(1 - 1/rel.distinctOf(idx))
				}
			}
			return 0.9
		case "<", "<=", ">", ">=":
			if _, frac, upper, ok := rangeBound(n, rel); ok {
				if upper {
					return clampSel(frac)
				}
				return clampSel(1 - frac)
			}
			return 1.0 / 3
		}
		return 0.5
	case *UnaryExpr:
		if n.Op == "NOT" {
			return clampSel(1 - filterSelectivity(n.Child, rel))
		}
		return 0.5
	case *IsNullExpr:
		if id, ok := n.Child.(*Ident); ok {
			if idx, err := rel.schema.Resolve(id.Qualifier, id.Name); err == nil {
				if cs := rel.colStats(idx); cs != nil && rel.stats.Rows > 0 {
					s := float64(cs.Nulls) / float64(rel.stats.Rows)
					if n.Negate {
						s = 1 - s
					}
					return clampSel(s)
				}
			}
		}
		return 0.1
	case *LikeExpr:
		return 0.25
	case *InExpr:
		// A literal list or a materialized subquery: one of the two is empty.
		return inSelectivity(n.Child, len(n.List)+len(n.set), n.Negate, rel)
	case *BetweenExpr:
		return 0.25
	}
	return 0.5
}

func inSelectivity(child ExprNode, setSize int, negate bool, rel *planRel) float64 {
	s := 0.3
	if id, ok := child.(*Ident); ok {
		if idx, err := rel.schema.Resolve(id.Qualifier, id.Name); err == nil {
			s = clampSel(float64(setSize) / rel.distinctOf(idx))
		}
	}
	if negate {
		s = 1 - s
	}
	return clampSel(s)
}

// conjunctionSelectivity estimates an AND of single-relation
// predicates. Conjuncts are taken as independent events — their
// selectivities multiply — except range bounds on one column: `Item >=
// k AND Item < k+w` is one interval, frac(hi) − frac(lo) of the
// column's range, not the product of two half-lines (which reads a
// 0.8 % window as 25 %).
func conjunctionSelectivity(es []ExprNode, rel *planRel) float64 {
	type interval struct{ lo, hi float64 }
	var cols []int // first-seen order keeps the product deterministic
	bounds := map[int]*interval{}
	sel := 1.0
	for _, e := range es {
		be, _ := e.(*BinaryExpr)
		idx, frac, upper, ok := rangeBound(be, rel)
		if !ok {
			sel *= filterSelectivity(e, rel)
			continue
		}
		iv := bounds[idx]
		if iv == nil {
			iv = &interval{lo: 0, hi: 1}
			bounds[idx] = iv
			cols = append(cols, idx)
		}
		if upper && frac < iv.hi {
			iv.hi = frac
		} else if !upper && frac > iv.lo {
			iv.lo = frac
		}
	}
	for _, idx := range cols {
		sel *= clampSel(bounds[idx].hi - bounds[idx].lo)
	}
	return clampSel(sel)
}

// rangeBound reads "col < C" style predicates (either way round)
// against the column's min/max when all three are numeric: frac is the
// fraction of the column's range below C, upper whether the predicate
// keeps the part below it.
func rangeBound(n *BinaryExpr, rel *planRel) (idx int, frac float64, upper, ok bool) {
	if n == nil {
		return 0, 0, false, false
	}
	switch n.Op {
	case "<", "<=":
		upper = true
	case ">", ">=":
	default:
		return 0, 0, false, false
	}
	id, lit := identConstSides(n)
	if id == nil {
		return 0, 0, false, false
	}
	if n.Left != id {
		upper = !upper // "C op col" mirrors the comparison
	}
	idx, err := rel.schema.Resolve(id.Qualifier, id.Name)
	if err != nil {
		return 0, 0, false, false
	}
	cs := rel.colStats(idx)
	if cs == nil {
		return 0, 0, false, false
	}
	lo, lok := cs.Min.AsFloat()
	hi, hok := cs.Max.AsFloat()
	c, cok := litValue(lit).AsFloat()
	if !lok || !hok || !cok || hi <= lo {
		return 0, 0, false, false
	}
	return idx, (c - lo) / (hi - lo), upper, true
}

func identConstSides(n *BinaryExpr) (*Ident, *Lit) {
	if id, ok := n.Left.(*Ident); ok {
		if lit, ok := n.Right.(*Lit); ok {
			return id, lit
		}
	}
	if id, ok := n.Right.(*Ident); ok {
		if lit, ok := n.Left.(*Lit); ok {
			return id, lit
		}
	}
	return nil, nil
}

// joinSelectivity is the stats-free estimate for residual multi-
// relation conjuncts.
func joinSelectivity(e ExprNode) float64 {
	if be, ok := e.(*BinaryExpr); ok {
		switch be.Op {
		case "=":
			return 0.1
		case "<", "<=", ">", ">=":
			return 1.0 / 3
		case "<>":
			return 0.9
		}
	}
	return 0.5
}

func clampSel(s float64) float64 {
	if s < 0.0001 {
		return 0.0001
	}
	if s > 1 {
		return 1
	}
	return s
}
