package sql_test

import (
	"fmt"
	"strings"

	"pcqe/internal/relation"
)

// This file generates the differential's random instances: a small
// catalog and a well-typed SELECT over it, both read from the bytes of
// a fuzz input, so `go test -fuzz` shrinks a failure to a short input.

// choices reads a generator's decisions from a fuzz input: each is one
// byte modulo its range, and an exhausted input decides 0, which is
// always the simplest option.
type choices struct {
	data []byte
	pos  int
}

func (c *choices) intn(n int) int {
	if n <= 1 || c.pos >= len(c.data) {
		return 0
	}
	c.pos++
	return int(c.data[c.pos-1]) % n
}

// percent is true with chance p in 100; an exhausted input says no.
func (c *choices) percent(p int) bool { return c.intn(100) >= 100-p }

func pick[T any](c *choices, xs ...T) T { return xs[c.intn(len(xs))] }

// The grids values and confidences come from. Confidences are dyadic,
// so every possible-world probability is exact in floating point on
// both sides; so are sums and averages of the REAL grid.
var (
	cellGrid = map[relation.Type][]relation.Value{
		relation.TypeInt:    {relation.Int(0), relation.Int(1), relation.Int(2), relation.Int(3), relation.Int(-1)},
		relation.TypeFloat:  {relation.Float(0.5), relation.Float(1), relation.Float(1.5), relation.Float(2), relation.Float(-0.25)},
		relation.TypeString: {relation.String_("a"), relation.String_("b"), relation.String_("ab"), relation.String_("B"), relation.String_("ba")},
	}
	literalGrid = map[relation.Type][]string{
		relation.TypeInt:    {"1", "0", "2", "3", "-1"},
		relation.TypeFloat:  {"0.5", "1.5", "1.0", "2.25", "-0.25"},
		relation.TypeString: {"'a'", "'b'", "'ab'", "'B'", "'x'"},
	}
	confGrid   = []float64{1, 0.5, 0.25, 0.75}
	scalarType = []relation.Type{relation.TypeInt, relation.TypeFloat, relation.TypeString}
)

// maxGeneratedRows caps the rows of a generated catalog, and with them
// the variables of any lineage formula: ProbBruteForce enumerates 2^n
// worlds.
const maxGeneratedRows = 12

// genCatalog builds one to three tables t0…t2 of one to three columns
// a, b, c (INTEGER, REAL or TEXT; names repeat across tables), zero to
// six rows each with about 15 % NULL cells, confidences from confGrid,
// and a hash index on some columns. It returns the catalog and a
// script that rebuilds it, for failure reports.
func genCatalog(c *choices, saw map[string]bool) (*relation.Catalog, string, error) {
	cat := relation.NewCatalog()
	var script strings.Builder
	budget := maxGeneratedRows
	for i := range 1 + c.intn(3) {
		var cols []relation.Column
		var defs []string
		for j := range 1 + c.intn(3) {
			col := relation.Column{Name: string(rune('a' + j)), Type: pick(c, scalarType...)}
			cols = append(cols, col)
			defs = append(defs, col.Name+" "+col.Type.String())
		}
		tab, err := cat.CreateTable(fmt.Sprintf("t%d", i), relation.NewSchema(cols...))
		if err != nil {
			return nil, "", err
		}
		fmt.Fprintf(&script, "CREATE TABLE %s (%s);\n", tab.Name, strings.Join(defs, ", "))
		x := cat.Begin()
		for range min(c.intn(7), budget) {
			budget--
			vals := make([]relation.Value, len(cols))
			cells := make([]string, len(cols))
			for j, col := range cols {
				if !c.percent(15) {
					vals[j] = pick(c, cellGrid[col.Type]...)
				}
				cells[j] = vals[j].String()
				if vals[j].Type() == relation.TypeString {
					cells[j] = "'" + cells[j] + "'"
				}
			}
			conf := pick(c, confGrid...)
			x.MustInsert(tab, conf, nil, vals...)
			fmt.Fprintf(&script, "INSERT INTO %s VALUES (%s) WITH CONFIDENCE %g;\n", tab.Name, strings.Join(cells, ", "), conf)
		}
		if _, err := x.Commit(); err != nil {
			return nil, "", err
		}
		for _, col := range cols {
			if c.percent(30) {
				if _, err := tab.CreateIndex(col.Name); err != nil {
					return nil, "", err
				}
				fmt.Fprintf(&script, "CREATE INDEX ON %s (%s);\n", tab.Name, col.Name)
				saw["index"] = true
			}
		}
	}
	return cat, script.String(), nil
}

// gen writes one well-typed SELECT over a generated catalog.
type gen struct {
	c      *choices
	tables [][]relation.Column // column j of table i is tables[i][j]
	saw    map[string]bool     // the grammar constructs written
	depth  int                 // select blocks open
	fresh  int                 // alias counter
	// bare allows unqualified column names: each block's FROM is
	// written (so its names are known) before its other clauses.
	bare bool
	// readsConf records that the open block reads _confidence, and
	// noConf forbids it: SQL leaves open which of several tied rows a
	// LIMIT keeps, and tied rows may carry different lineage, so a block
	// whose FROM holds a LIMIT may not turn lineage into values.
	readsConf, noConf bool
	limits            int // LIMIT clauses written
}

// scol is a column a block's expressions may read.
type scol struct {
	qual, name string
	typ        relation.Type
}

func (g *gen) mark(construct string) {
	g.saw[construct] = true
	g.readsConf = g.readsConf || construct == conf.name
}

func (g *gen) alias(prefix string) string {
	g.fresh++
	return fmt.Sprintf("%s%d", prefix, g.fresh)
}

// ref names a column: bare when its name is unique in the scope, and
// the block allows it, some of the time.
func (g *gen) ref(sc []scol, col scol) string {
	n := 0
	for _, o := range sc {
		if strings.EqualFold(o.name, col.name) {
			n++
		}
	}
	if col.qual == "" || g.bare && n == 1 && g.c.percent(40) {
		return col.name
	}
	return col.qual + "." + col.name
}

func numeric(t relation.Type) bool { return t == relation.TypeInt || t == relation.TypeFloat }

// family picks a type that compares with t: INTEGER and REAL compare
// with each other.
func (g *gen) family(t relation.Type) relation.Type {
	if numeric(t) {
		return pick(g.c, t, relation.TypeInt, relation.TypeFloat)
	}
	return t
}

// conf is the _confidence pseudo-column, readable where ctx allows.
var conf = scol{name: "_confidence", typ: relation.TypeFloat}

// ctx is what a condition may use: IN-subqueries (WHERE and ON) and
// _confidence. A typed condition is a select-list column, whose static
// type must be BOOLEAN: it is not the bare NULL literal.
type ctx struct{ sub, conf, typed bool }

// query writes a statement — one block or a chain of set operations
// over blocks of the same column types — and returns its column types
// and aliases. A want of nil leaves the types free; named asks for an
// alias on every column (a derived table's).
func (g *gen) query(want []relation.Type, named bool) (string, []relation.Type, []string) {
	// Every top-level statement reads this choice's byte, so the
	// committed corpus holds a byte here that declines it
	// (TestFuzzCorpusGeneratesItsStatements).
	if want == nil && !named && g.depth == 0 && g.c.percent(15) {
		if text, types, ok := g.keyJoin(); ok {
			return text, types, make([]string, len(types))
		}
	}
	text, types, aliases := g.block(want, named)
	for n := 0; n < 2 && g.depth < 2 && g.c.percent(20); n++ {
		op := pick(g.c, "UNION", "UNION ALL", "INTERSECT", "EXCEPT")
		g.mark(op)
		right, _, _ := g.block(types, false)
		text += " " + op + " " + right
	}
	return text, types, aliases
}

// block writes one select block.
func (g *gen) block(want []relation.Type, named bool) (string, []relation.Type, []string) {
	g.depth++
	saveBare, saveReads, saveNo := g.bare, g.readsConf, g.noConf
	defer func() { g.depth--; g.bare, g.readsConf, g.noConf = saveBare, saveReads, saveNo }()

	g.bare, g.readsConf = false, false
	limits := g.limits
	from, sc := g.from()
	g.bare, g.noConf = true, g.limits > limits
	var b strings.Builder
	where := ""
	if g.c.percent(60) {
		where = " WHERE " + g.boolean(sc, 2, ctx{sub: true, conf: !g.noConf})
	}
	limit := g.c.percent(15)
	named = named || limit
	var items, aliases []string
	var types []relation.Type
	var order []string // ORDER BY keys
	aggregated := want == nil && g.c.percent(30)
	distinct := g.c.percent(20)
	add := func(expr string, t relation.Type) {
		a := ""
		if named || g.c.percent(30) {
			a = g.alias("x")
			expr += " AS " + a
		}
		items, aliases, types = append(items, expr), append(aliases, a), append(types, t)
	}
	switch {
	case aggregated:
		var groups []string
		for range g.c.intn(3) {
			col := pick(g.c, sc...)
			r := g.ref(sc, col)
			groups = append(groups, r)
			if g.c.percent(70) {
				add(r, col.typ)
			}
		}
		for n := 1 + g.c.intn(2); n > 0; n-- {
			add(g.aggregate(sc))
		}
		b.WriteString(strings.Join(items, ", ") + " FROM " + from + where)
		if len(groups) > 0 {
			g.mark("GROUP BY")
			b.WriteString(" GROUP BY " + strings.Join(groups, ", "))
		}
		if g.c.percent(30) {
			g.mark("HAVING")
			b.WriteString(" HAVING " + g.having(sc, groups))
		}
	case want == nil && !named && g.c.percent(10):
		items = []string{"*"}
		for _, col := range sc {
			types = append(types, col.typ)
		}
		b.WriteString("* FROM " + from + where)
	default:
		n := 1 + g.c.intn(3)
		if want != nil {
			n = len(want)
		}
		for i := range n {
			t := pick(g.c, relation.TypeInt, relation.TypeFloat, relation.TypeString, relation.TypeInt, relation.TypeFloat, relation.TypeString, relation.TypeBool)
			if want != nil {
				t = want[i]
			}
			switch {
			case t == relation.TypeBool:
				add(g.boolean(sc, 1, ctx{conf: !g.noConf, typed: true}), t)
			case t == relation.TypeFloat && !g.noConf && g.c.percent(10):
				g.mark("_confidence")
				add(conf.name, t)
			case g.noConf:
				add(g.scalar(sc, t, 2), t)
			default:
				add(g.scalar(append(sc, conf), t, 2), t)
			}
		}
		b.WriteString(strings.Join(items, ", ") + " FROM " + from + where)
		if !limit && g.c.percent(20) {
			col := pick(g.c, sc...)
			order = append(order, g.ref(sc, col)+pick(g.c, "", " DESC"))
		}
	}
	if items[0] == "*" && g.readsConf {
		types = append(types, relation.TypeFloat) // * reads the attached column
	}
	if distinct {
		g.mark("DISTINCT")
	}
	if limit {
		for _, a := range aliases {
			order = append(order, a+pick(g.c, "", " DESC"))
		}
	} else if len(order) == 0 && g.c.percent(20) {
		for _, a := range aliases {
			if a != "" {
				order = append(order, a+pick(g.c, "", " DESC"))
				break
			}
		}
	}
	if len(order) > 0 {
		g.mark("ORDER BY")
		b.WriteString(" ORDER BY " + strings.Join(order, ", "))
	}
	if limit {
		g.limits++
		g.mark("LIMIT")
		fmt.Fprintf(&b, " LIMIT %d", g.c.intn(4))
		if g.c.percent(40) {
			g.mark("OFFSET")
			fmt.Fprintf(&b, " OFFSET %d", 1+g.c.intn(2))
		}
	}
	head := "SELECT "
	if distinct {
		head += "DISTINCT "
	}
	return head + b.String(), types, aliases
}

// keyJoin writes the shape the planner runs as a group-join: SELECT
// DISTINCT over columns of one side of two tables (one table twice: a
// self-join) joined on an INTEGER or TEXT column pair, sometimes with a
// filter on either side, an ORDER BY or a LIMIT. It writes nothing
// when no two columns can key the join.
func (g *gen) keyJoin() (string, []relation.Type, bool) {
	type key struct{ tab, col int }
	var pairs [][2]key
	for i, ti := range g.tables {
		for a, ca := range ti {
			for j, tj := range g.tables {
				for b, cb := range tj {
					if ca.Type == cb.Type && (ca.Type == relation.TypeInt || ca.Type == relation.TypeString) {
						pairs = append(pairs, [2]key{{i, a}, {j, b}})
					}
				}
			}
		}
	}
	if len(pairs) == 0 {
		return "", nil, false
	}
	g.depth++
	defer func() { g.depth-- }()
	g.mark("key join")
	g.mark("DISTINCT")
	g.mark("JOIN")
	p := pick(g.c, pairs...)
	var sides [2][]scol
	var rels [2]string
	for s, k := range p {
		qual := g.alias("r")
		rels[s] = fmt.Sprintf("t%d %s", k.tab, qual)
		for _, col := range g.tables[k.tab] {
			sides[s] = append(sides[s], scol{qual, col.Name, col.Type})
		}
	}
	l, r := sides[0][p[0].col], sides[1][p[1].col]
	from := rels[0] + " JOIN " + rels[1] + " ON " + l.qual + "." + l.name + " = " + r.qual + "." + r.name
	var conds []string
	for _, sc := range sides {
		if g.c.percent(40) {
			conds = append(conds, "("+g.boolean(sc, 1, ctx{})+")")
		}
	}
	where := ""
	if len(conds) > 0 {
		where = " WHERE " + strings.Join(conds, " AND ")
	}
	kept := sides[g.c.intn(2)]
	var items, aliases []string
	var types []relation.Type
	for range 1 + g.c.intn(2) {
		col := pick(g.c, kept...)
		a := g.alias("x")
		items, aliases, types = append(items, col.qual+"."+col.name+" AS "+a), append(aliases, a), append(types, col.typ)
	}
	tail := ""
	if g.c.percent(20) { // by every column, so LIMIT keeps no tied rows
		g.mark("ORDER BY")
		order := make([]string, len(aliases))
		for i, a := range aliases {
			order[i] = a + pick(g.c, "", " DESC")
		}
		tail = " ORDER BY " + strings.Join(order, ", ")
		if g.c.percent(50) {
			g.mark("LIMIT")
			tail += fmt.Sprintf(" LIMIT %d", 1+g.c.intn(3))
		}
	}
	return "SELECT DISTINCT " + strings.Join(items, ", ") + " FROM " + from + where + tail, types, true
}

// from writes a FROM clause of one to three relations and returns the
// columns it brings into scope.
func (g *gen) from() (string, []scol) {
	var b strings.Builder
	var sc []scol
	used := map[int]bool{}
	n := 1 + g.c.intn(3)
	if g.depth > 1 {
		n = 1 + g.c.intn(2)
	}
	for i := range n {
		rel, cols := g.relation(used)
		switch kind := g.c.intn(3); {
		case i == 0:
			b.WriteString(rel)
		case kind == 0:
			g.mark("JOIN")
			b.WriteString(" JOIN " + rel + " ON " + g.joinOn(sc, cols))
		case kind == 1:
			g.mark("comma join")
			b.WriteString(", " + rel)
		default:
			g.mark("CROSS JOIN")
			b.WriteString(" CROSS JOIN " + rel)
		}
		sc = append(sc, cols...)
	}
	return b.String(), sc
}

// relation writes one FROM entry: a base table, aliased when it is
// read twice and sometimes otherwise, or a derived table.
func (g *gen) relation(used map[int]bool) (string, []scol) {
	if g.depth < 3 && g.c.percent(15) {
		g.mark("derived table")
		sub, types, names := g.query(nil, true)
		a := g.alias("d")
		var cols []scol
		for i, t := range types {
			cols = append(cols, scol{a, names[i], t})
		}
		return "(" + sub + ") AS " + a, cols
	}
	i := g.c.intn(len(g.tables))
	name, qual := fmt.Sprintf("t%d", i), fmt.Sprintf("t%d", i)
	if used[i] || g.c.percent(30) {
		qual = g.alias("r")
		name += " " + qual
	}
	used[i] = true
	var cols []scol
	for _, col := range g.tables[i] {
		cols = append(cols, scol{qual, col.Name, col.Type})
	}
	return name, cols
}

// joinOn writes an ON condition joining the new relation's columns to
// the ones before it: usually an equality of two columns that compare,
// sometimes with another condition.
func (g *gen) joinOn(left, right []scol) string {
	var pairs [][2]scol
	for _, l := range left {
		for _, r := range right {
			if numeric(l.typ) && numeric(r.typ) || l.typ == r.typ {
				pairs = append(pairs, [2]scol{l, r})
			}
		}
	}
	all := append(append([]scol{}, left...), right...)
	if len(pairs) == 0 || g.c.percent(15) {
		return g.boolean(all, 1, ctx{sub: true})
	}
	p := pick(g.c, pairs...)
	on := g.ref(all, p[0]) + " = " + g.ref(all, p[1])
	if g.c.percent(25) {
		g.mark("AND")
		on += " AND " + g.boolean(all, 1, ctx{sub: true})
	}
	return on
}

// scalar writes an expression of exactly type t (INTEGER, REAL or
// TEXT): the engine's static types must match for set operations.
func (g *gen) scalar(sc []scol, t relation.Type, depth int) string {
	var cols []scol
	for _, col := range sc {
		if col.typ == t {
			cols = append(cols, col)
		}
	}
	switch k := g.c.intn(6); {
	case k <= 2 && len(cols) > 0:
		col := pick(g.c, cols...)
		if col == conf {
			g.mark("_confidence")
		}
		return g.ref(sc, col)
	case k <= 3 || depth <= 0 || t == relation.TypeString:
		return pick(g.c, literalGrid[t]...)
	case k == 4:
		g.mark("arithmetic")
		if t == relation.TypeInt {
			return "(" + g.scalar(sc, t, depth-1) + pick(g.c, " + ", " - ", " * ") + g.scalar(sc, t, depth-1) + ")"
		}
		l, r := g.scalar(sc, t, depth-1), g.scalar(sc, pick(g.c, relation.TypeInt, relation.TypeFloat), depth-1)
		op := pick(g.c, " + ", " - ", " * ", " / ")
		if op == " / " || g.c.percent(50) {
			l, r = r, l
		}
		return "(" + l + op + r + ")"
	}
	g.mark("arithmetic")
	return "-(" + g.scalar(sc, t, depth-1) + ")"
}

// boolean writes a condition.
func (g *gen) boolean(sc []scol, depth int, cx ctx) string {
	num := func() relation.Type { return pick(g.c, relation.TypeInt, relation.TypeFloat) }
	operand := func(t relation.Type) string {
		if cx.conf && t == relation.TypeFloat {
			return g.scalar(append(sc, conf), t, 1)
		}
		return g.scalar(sc, t, 1)
	}
	typed := cx.typed
	cx.typed = false // only the top of the condition is the column
	literal := func() string {
		if typed {
			return pick(g.c, "TRUE", "FALSE")
		}
		return pick(g.c, "TRUE", "FALSE", "NULL")
	}
	kinds := 9
	if depth > 0 {
		kinds = 12
	}
	switch g.c.intn(kinds) {
	case 0, 1:
		g.mark("comparison")
		t := pick(g.c, scalarType...)
		r := operand(g.family(t))
		if g.c.percent(10) {
			r = "NULL"
		}
		return operand(t) + pick(g.c, " = ", " <> ", " < ", " <= ", " > ", " >= ") + r
	case 2:
		g.mark("IS NULL")
		return operand(pick(g.c, scalarType...)) + pick(g.c, " IS NULL", " IS NOT NULL")
	case 3:
		g.mark("LIKE")
		return operand(relation.TypeString) + pick(g.c, " LIKE ", " NOT LIKE ") + pick(g.c, "'a%'", "'%b'", "'_'", "'%'", "'A_'")
	case 4:
		g.mark("BETWEEN")
		t := pick(g.c, num(), relation.TypeString)
		return operand(t) + pick(g.c, " BETWEEN ", " NOT BETWEEN ") + operand(g.family(t)) + " AND " + operand(g.family(t))
	case 5:
		g.mark("IN list")
		t := pick(g.c, scalarType...)
		list := []string{pick(g.c, literalGrid[g.family(t)]...)}
		for range g.c.intn(3) {
			list = append(list, pick(g.c, append(literalGrid[g.family(t)], "NULL")...))
		}
		return operand(t) + pick(g.c, " IN (", " NOT IN (") + strings.Join(list, ", ") + ")"
	case 6:
		if cx.sub && g.depth < 3 {
			t := pick(g.c, scalarType...)
			sub, _, _ := g.query([]relation.Type{g.family(t)}, false)
			not := pick(g.c, "", "NOT ")
			g.mark(not + "IN subquery")
			return operand(t) + " " + not + "IN (" + sub + ")"
		}
		return literal()
	case 7:
		if cx.conf {
			g.mark("_confidence")
			return conf.name + pick(g.c, " > ", " >= ", " < ", " <= ") + pick(g.c, "0.3", "0.5", "0.6", "0.8")
		}
		return literal()
	case 8:
		return literal()
	case 9:
		g.mark("AND")
		return "(" + g.boolean(sc, depth-1, cx) + " AND " + g.boolean(sc, depth-1, cx) + ")"
	case 10:
		g.mark("OR")
		return "(" + g.boolean(sc, depth-1, cx) + " OR " + g.boolean(sc, depth-1, cx) + ")"
	}
	g.mark("NOT")
	return "NOT (" + g.boolean(sc, depth-1, cx) + ")"
}

// aggregate writes one aggregate call and returns it with its type.
func (g *gen) aggregate(sc []scol) (string, relation.Type) {
	arg := func(t relation.Type) string {
		if t == relation.TypeFloat && !g.noConf && g.c.percent(10) {
			g.mark("_confidence")
			return conf.name
		}
		return g.scalar(sc, t, 1)
	}
	num := pick(g.c, relation.TypeInt, relation.TypeFloat)
	switch g.c.intn(6) {
	case 0:
		g.mark("COUNT(*)")
		return "COUNT(*)", relation.TypeInt
	case 1:
		g.mark("COUNT")
		return "COUNT(" + arg(pick(g.c, scalarType...)) + ")", relation.TypeInt
	case 2:
		g.mark("SUM")
		return "SUM(" + arg(num) + ")", num
	case 3:
		g.mark("AVG")
		return "AVG(" + arg(num) + ")", relation.TypeFloat
	}
	name := pick(g.c, "MIN", "MAX")
	g.mark(name)
	t := pick(g.c, scalarType...)
	return name + "(" + arg(t) + ")", t
}

// having writes a HAVING condition over aggregates and the GROUP BY
// columns.
func (g *gen) having(sc []scol, groups []string) string {
	var h string
	switch k := g.c.intn(4); {
	case k == 0:
		h = "COUNT(*) " + pick(g.c, ">", ">=", "<") + " " + pick(g.c, "1", "0", "2")
	case k == 1 && len(groups) > 0:
		h = pick(g.c, groups...) + pick(g.c, " IS NULL", " IS NOT NULL")
	default:
		call, t := g.aggregate(sc)
		if t == relation.TypeBool || t == relation.TypeString {
			h = call + pick(g.c, " IS NULL", " IS NOT NULL", " > 'a'")
		} else {
			h = call + pick(g.c, " > ", " <= ") + pick(g.c, literalGrid[t]...)
		}
	}
	if g.c.percent(20) {
		op := pick(g.c, "AND", "OR")
		g.mark(op)
		return "(" + h + " " + op + " " + g.having(sc, groups) + ")"
	}
	return h
}
