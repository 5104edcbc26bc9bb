package sql

import (
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"pcqe/internal/relation"
)

// renderer is the package's one AST printer. Its two switches tell the
// three forms of a statement apart: SQL() text sets neither, canonical()
// (structural matching of GROUP BY keys and aggregate calls) sets fold,
// and the plan-cache fingerprint sets both.
type renderer struct {
	strings.Builder
	// fold lower-cases identifiers — and only identifiers: the case of a
	// literal or a LIKE pattern is part of its value.
	fold bool
	// lits, when set, receives every literal in encounter order; the
	// text then shows "?" in its place.
	lits *[]relation.Value
}

func renderExpr(e ExprNode, fold bool) string {
	r := renderer{fold: fold}
	r.expr(e)
	return r.String()
}

func renderStmt(s *SelectStmt, fold bool, lits *[]relation.Value) string {
	r := renderer{fold: fold, lits: lits}
	r.stmt(s)
	return r.String()
}

// quoteIdent renders an identifier, double-quoting it when it would
// otherwise lex as a keyword or contains non-identifier characters.
func quoteIdent(name string) string {
	var r renderer
	r.ident(name)
	return r.String()
}

// ident writes one identifier, folded rune by rune so that the
// fingerprint of a cached statement allocates no string per name.
func (r *renderer) ident(name string) {
	quote := name == "" || lexesAsKeyword(name)
	for i, c := range name {
		if !isIdentPart(c) || i == 0 && !isIdentStart(c) {
			quote = true
			break
		}
	}
	if quote {
		r.WriteByte('"')
	}
	if r.fold {
		for _, c := range name {
			r.WriteRune(unicode.ToLower(c))
		}
	} else {
		r.WriteString(name)
	}
	if quote {
		r.WriteByte('"')
	}
}

// lexesAsKeyword reports whether the lexer would read name as a
// keyword; it upper-cases on the stack unless name is not ASCII (the
// lexer folds "ſelect" to SELECT too).
func lexesAsKeyword(name string) bool {
	var buf [12]byte // longer than any keyword
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= utf8.RuneSelf {
			return isKeyword(strings.ToUpper(name))
		}
		if i == len(buf) {
			return false
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	return isKeyword(string(buf[:len(name)]))
}

// sep separates list items: first before item 0, a comma after.
func sep(i int, first string) string {
	if i == 0 {
		return first
	}
	return ", "
}

func (r *renderer) param(v relation.Value) {
	r.WriteByte('?')
	*r.lits = append(*r.lits, v)
}

func (r *renderer) negated(negate bool, op string) {
	if negate {
		r.WriteString(" NOT")
	}
	r.WriteString(op)
}

func (r *renderer) expr(e ExprNode) {
	switch n := e.(type) {
	case *Ident:
		if n.Qualifier != "" {
			r.ident(n.Qualifier)
			r.WriteByte('.')
		}
		r.ident(n.Name)
	case *Lit:
		switch {
		case r.lits != nil:
			r.param(litValue(n))
		case n.Kind == LitNull:
			r.WriteString("NULL")
		case n.Kind == LitBool && n.Bool:
			r.WriteString("TRUE")
		case n.Kind == LitBool:
			r.WriteString("FALSE")
		case n.Kind == LitInt:
			r.WriteString(strconv.FormatInt(n.Int, 10))
		case n.Kind == LitFloat:
			r.WriteString(strconv.FormatFloat(n.Flt, 'g', -1, 64))
		case n.Kind == LitString:
			r.WriteString("'" + strings.ReplaceAll(n.Str, "'", "''") + "'")
		default:
			r.WriteByte('?')
		}
	case *BinaryExpr:
		r.WriteByte('(')
		r.expr(n.Left)
		r.WriteString(" " + n.Op + " ")
		r.expr(n.Right)
		r.WriteByte(')')
	case *UnaryExpr:
		r.WriteString(n.Op)
		if n.Op != "-" {
			r.WriteByte(' ')
		}
		r.expr(n.Child)
	case *IsNullExpr:
		r.expr(n.Child)
		r.WriteString(" IS")
		r.negated(n.Negate, " NULL")
	case *LikeExpr:
		r.expr(n.Child)
		r.negated(n.Negate, " LIKE ")
		if r.lits != nil {
			r.param(relation.String_(n.Pattern))
		} else {
			r.WriteString("'" + n.Pattern + "'")
		}
	case *InExpr:
		r.expr(n.Child)
		r.negated(n.Negate, " IN (")
		if n.Sub != nil {
			r.stmt(n.Sub)
		}
		for i, item := range n.List {
			r.WriteString(sep(i, ""))
			r.expr(item)
		}
		r.WriteByte(')')
	case *BetweenExpr:
		r.expr(n.Child)
		r.negated(n.Negate, " BETWEEN ")
		r.expr(n.Lo)
		r.WriteString(" AND ")
		r.expr(n.Hi)
	case *FuncCall:
		r.WriteString(n.Name + "(")
		if n.Star {
			r.WriteByte('*')
		} else {
			r.expr(n.Arg)
		}
		r.WriteByte(')')
	}
}

func (r *renderer) table(t TableRef) {
	if t.Sub != nil {
		r.WriteByte('(')
		r.stmt(t.Sub)
		r.WriteByte(')')
	} else {
		r.ident(t.Name)
	}
	if t.Alias != "" {
		r.WriteString(" AS ")
		r.ident(t.Alias)
	}
}

func (r *renderer) stmt(s *SelectStmt) {
	r.WriteString("SELECT ")
	if s.Distinct {
		r.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		r.WriteString(sep(i, ""))
		if it.Star {
			r.WriteByte('*')
			continue
		}
		r.expr(it.Expr)
		if it.Alias != "" {
			r.WriteString(" AS ")
			r.ident(it.Alias)
		}
	}
	r.WriteString(" FROM ")
	r.table(s.From)
	for _, j := range s.Joins {
		if j.On == nil {
			r.WriteString(" CROSS JOIN ")
			r.table(j.Table)
			continue
		}
		r.WriteString(" JOIN ")
		r.table(j.Table)
		r.WriteString(" ON ")
		r.expr(j.On)
	}
	if s.Where != nil {
		r.WriteString(" WHERE ")
		r.expr(s.Where)
	}
	for i, g := range s.GroupBy {
		r.WriteString(sep(i, " GROUP BY "))
		r.expr(g)
	}
	if s.Having != nil {
		r.WriteString(" HAVING ")
		r.expr(s.Having)
	}
	for i, o := range s.OrderBy {
		r.WriteString(sep(i, " ORDER BY "))
		r.expr(o.Expr)
		if o.Desc {
			r.WriteString(" DESC")
		}
	}
	// LIMIT and OFFSET stay in the fingerprint's shape: they change the
	// operator tree, they are not bindable constants.
	if s.Limit >= 0 {
		r.WriteString(" LIMIT " + strconv.Itoa(s.Limit))
	}
	if s.Offset > 0 {
		r.WriteString(" OFFSET " + strconv.Itoa(s.Offset))
	}
	if s.SetOp != SetNone {
		r.WriteString([...]string{SetUnion: " UNION ", SetUnionAll: " UNION ALL ", SetIntersect: " INTERSECT ", SetExcept: " EXCEPT "}[s.SetOp])
		r.stmt(s.Next)
	}
}
