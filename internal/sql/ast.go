package sql

// Node is any AST node.
type Node interface {
	// SQL renders the node back to SQL text (canonical form).
	SQL() string
}

// --- Expressions ---

// ExprNode is an AST expression.
type ExprNode interface {
	Node
	exprNode()
}

// Ident references a column, optionally qualified: "t.col" or "col".
type Ident struct {
	Qualifier string
	Name      string
	Tok       Token
}

func (i *Ident) exprNode() {}

// SQL implements Node.
func (i *Ident) SQL() string { return renderExpr(i, false) }

// LitKind enumerates literal kinds.
type LitKind uint8

// Literal kinds.
const (
	LitNull LitKind = iota
	LitBool
	LitInt
	LitFloat
	LitString
)

// Lit is a literal value.
type Lit struct {
	Kind LitKind
	Bool bool
	Int  int64
	Flt  float64
	Str  string
	Tok  Token
}

func (l *Lit) exprNode() {}

// SQL implements Node.
func (l *Lit) SQL() string { return renderExpr(l, false) }

// BinaryExpr applies a binary operator ("=", "<", "AND", "+", ...).
type BinaryExpr struct {
	Op          string
	Left, Right ExprNode
	Tok         Token
}

func (b *BinaryExpr) exprNode() {}

// SQL implements Node.
func (b *BinaryExpr) SQL() string { return renderExpr(b, false) }

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op    string // "NOT" or "-"
	Child ExprNode
	Tok   Token
}

func (u *UnaryExpr) exprNode() {}

// SQL implements Node.
func (u *UnaryExpr) SQL() string { return renderExpr(u, false) }

// IsNullExpr is "expr IS [NOT] NULL".
type IsNullExpr struct {
	Child  ExprNode
	Negate bool
	Tok    Token
}

func (e *IsNullExpr) exprNode() {}

// SQL implements Node.
func (e *IsNullExpr) SQL() string { return renderExpr(e, false) }

// LikeExpr is "expr [NOT] LIKE 'pattern'".
type LikeExpr struct {
	Child   ExprNode
	Pattern string
	Negate  bool
	Tok     Token
}

func (e *LikeExpr) exprNode() {}

// SQL implements Node.
func (e *LikeExpr) SQL() string { return renderExpr(e, false) }

// InExpr is "expr [NOT] IN (lit, lit, ...)" or, with Sub set,
// "expr [NOT] IN (SELECT ...)".
type InExpr struct {
	Child  ExprNode
	List   []ExprNode
	Sub    *SelectStmt
	Negate bool
	Tok    Token

	// set holds the keys Sub produced, on the copy of the node the
	// planner compiles (resolveSubqueries).
	set map[string]bool
}

func (e *InExpr) exprNode() {}

// SQL implements Node.
func (e *InExpr) SQL() string { return renderExpr(e, false) }

// BetweenExpr is "expr [NOT] BETWEEN lo AND hi".
type BetweenExpr struct {
	Child, Lo, Hi ExprNode
	Negate        bool
	Tok           Token
}

func (e *BetweenExpr) exprNode() {}

// SQL implements Node.
func (e *BetweenExpr) SQL() string { return renderExpr(e, false) }

// FuncCall is an aggregate call: COUNT(*), COUNT(x), SUM(x), AVG, MIN, MAX.
type FuncCall struct {
	Name string // upper-case
	Arg  ExprNode
	Star bool // COUNT(*)
	Tok  Token
}

func (f *FuncCall) exprNode() {}

// SQL implements Node.
func (f *FuncCall) SQL() string { return renderExpr(f, false) }

// --- Statements ---

// SelectItem is one output column: an expression with an optional alias,
// or * (Star).
type SelectItem struct {
	Expr  ExprNode
	Alias string
	Star  bool
}

// TableRef names a base table — or a derived table (FROM subquery) when
// Sub is non-nil, in which case an alias is mandatory.
type TableRef struct {
	Name  string
	Alias string
	Sub   *SelectStmt
	Tok   Token
}

// JoinClause is "JOIN table [AS alias] ON cond" or a cross join (nil On).
type JoinClause struct {
	Table TableRef
	On    ExprNode // nil for CROSS JOIN / comma
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr ExprNode
	Desc bool
}

// SetOpKind enumerates set operations between SELECTs.
type SetOpKind uint8

// Set operations.
const (
	SetNone SetOpKind = iota
	SetUnion
	SetUnionAll
	SetIntersect
	SetExcept
)

// SelectStmt is a (possibly compound) SELECT statement.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     TableRef
	Joins    []JoinClause
	Where    ExprNode
	GroupBy  []ExprNode
	Having   ExprNode
	OrderBy  []OrderItem
	Limit    int // -1 = no limit
	Offset   int

	// Compound statement: this select <SetOp> Next.
	SetOp SetOpKind
	Next  *SelectStmt
}

// SQL implements Node.
func (s *SelectStmt) SQL() string { return renderStmt(s, false, nil) }
