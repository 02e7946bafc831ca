package jsast

// Node is implemented by every AST node. Type returns the ESTree-style node
// type name ("MemberExpression", "IfStatement", …); the feature extractor of
// §5 uses these names as the "context" part of its context:text features.
type Node interface {
	Type() string
}

// ---- Statements ----

// Program is the root node of a parsed script.
type Program struct {
	Body []Node

	// noEval is set by Parse when the source calls no bare eval, so that
	// Unpack need not walk the tree to find that out. The zero value — a
	// Program built by hand — makes no such promise.
	noEval bool
}

// FunctionDecl is a function declaration statement.
type FunctionDecl struct {
	Name   string
	Params []string
	Body   *Block
}

// VarDecl is a 'var' statement with one or more declarators.
type VarDecl struct {
	Decls []*Declarator
}

// Declarator is one name[=init] of a var statement.
type Declarator struct {
	Name string
	Init Node // nil when absent
}

// Block is a { … } statement list.
type Block struct {
	Body []Node
}

// ExprStmt wraps an expression used as a statement.
type ExprStmt struct {
	X Node
}

// If is an if/else statement.
type If struct {
	Cond Node
	Then Node
	Else Node // nil when absent
}

// For is a classic three-clause for loop; any clause may be nil.
type For struct {
	Init Node
	Cond Node
	Post Node
	Body Node
}

// ForIn is a for-in loop.
type ForIn struct {
	Left  Node // VarDecl or expression
	Right Node
	Body  Node
}

// While is a while loop.
type While struct {
	Cond Node
	Body Node
}

// DoWhile is a do-while loop.
type DoWhile struct {
	Body Node
	Cond Node
}

// Return is a return statement (Arg may be nil).
type Return struct {
	Arg Node
}

// Try is a try/catch/finally statement.
type Try struct {
	Body    *Block
	Catch   *Catch // nil when absent
	Finally *Block // nil when absent
}

// Catch is the catch clause of a try statement.
type Catch struct {
	Param string
	Body  *Block
}

// Throw is a throw statement.
type Throw struct {
	Arg Node
}

// Switch is a switch statement.
type Switch struct {
	Disc  Node
	Cases []*Case
}

// Case is one case (or default, when Test is nil) of a switch.
type Case struct {
	Test Node
	Body []Node
}

// Break is a break statement with an optional label.
type Break struct {
	Label string
}

// Continue is a continue statement with an optional label.
type Continue struct {
	Label string
}

// Labeled is a labeled statement.
type Labeled struct {
	Label string
	Body  Node
}

// Empty is a lone ';'.
type Empty struct{}

// With is a with statement (parsed for completeness).
type With struct {
	Obj  Node
	Body Node
}

// Debugger is a debugger statement.
type Debugger struct{}

// ---- Expressions ----

// Ident is an identifier reference.
type Ident struct {
	Name string
}

// LiteralKind distinguishes literal value categories.
type LiteralKind int

// Literal kinds.
const (
	LitString LiteralKind = iota
	LitNumber
	LitBool
	LitNull
	LitUndefined
	LitRegex
)

// Literal is a primitive literal. Value holds the decoded string value for
// strings, the literal text for numbers and regexes, and "true"/"false"/
// "null"/"undefined" otherwise.
type Literal struct {
	Kind  LiteralKind
	Value string
}

// This is a 'this' expression.
type This struct{}

// ArrayLit is an array literal.
type ArrayLit struct {
	Elems []Node
}

// ObjectLit is an object literal.
type ObjectLit struct {
	Props []*Property
}

// Property is one key: value pair of an object literal.
type Property struct {
	Key   string
	Value Node
}

// FunctionExpr is a (possibly named) function expression.
type FunctionExpr struct {
	Name   string
	Params []string
	Body   *Block
}

// Unary is a prefix unary expression (!, -, +, ~, typeof, void, delete).
type Unary struct {
	Op string
	X  Node
}

// Update is ++/-- in prefix or postfix position.
type Update struct {
	Op     string
	Prefix bool
	X      Node
}

// Binary is an arithmetic/relational binary expression.
type Binary struct {
	Op   string
	L, R Node
}

// Logical is && or ||.
type Logical struct {
	Op   string
	L, R Node
}

// Assign is an assignment (=, +=, …).
type Assign struct {
	Op   string
	L, R Node
}

// Conditional is the ternary ?: expression.
type Conditional struct {
	Cond, Then, Else Node
}

// Call is a function call.
type Call struct {
	Callee Node
	Args   []Node
}

// New is a new-expression.
type New struct {
	Callee Node
	Args   []Node
}

// Member is property access: obj.name or obj[expr].
type Member struct {
	Obj      Node
	Prop     Node // Ident for .name, arbitrary expression when Computed
	Computed bool
}

// Sequence is the comma operator.
type Sequence struct {
	Exprs []Node
}

// Type implementations (ESTree names).

func (*Program) Type() string      { return "Program" }
func (*FunctionDecl) Type() string { return "FunctionDeclaration" }
func (*VarDecl) Type() string      { return "VariableDeclaration" }
func (*Declarator) Type() string   { return "VariableDeclarator" }
func (*Block) Type() string        { return "BlockStatement" }
func (*ExprStmt) Type() string     { return "ExpressionStatement" }
func (*If) Type() string           { return "IfStatement" }
func (*For) Type() string          { return "ForStatement" }
func (*ForIn) Type() string        { return "ForInStatement" }
func (*While) Type() string        { return "WhileStatement" }
func (*DoWhile) Type() string      { return "DoWhileStatement" }
func (*Return) Type() string       { return "ReturnStatement" }
func (*Try) Type() string          { return "TryStatement" }
func (*Catch) Type() string        { return "CatchClause" }
func (*Throw) Type() string        { return "ThrowStatement" }
func (*Switch) Type() string       { return "SwitchStatement" }
func (*Case) Type() string         { return "SwitchCase" }
func (*Break) Type() string        { return "BreakStatement" }
func (*Continue) Type() string     { return "ContinueStatement" }
func (*Labeled) Type() string      { return "LabeledStatement" }
func (*Empty) Type() string        { return "EmptyStatement" }
func (*With) Type() string         { return "WithStatement" }
func (*Debugger) Type() string     { return "DebuggerStatement" }
func (*Ident) Type() string        { return "Identifier" }
func (*Literal) Type() string      { return "Literal" }
func (*This) Type() string         { return "ThisExpression" }
func (*ArrayLit) Type() string     { return "ArrayExpression" }
func (*ObjectLit) Type() string    { return "ObjectExpression" }
func (*Property) Type() string     { return "Property" }
func (*FunctionExpr) Type() string { return "FunctionExpression" }
func (*Unary) Type() string        { return "UnaryExpression" }
func (*Update) Type() string       { return "UpdateExpression" }
func (*Binary) Type() string       { return "BinaryExpression" }
func (*Logical) Type() string      { return "LogicalExpression" }
func (*Assign) Type() string       { return "AssignmentExpression" }
func (*Conditional) Type() string  { return "ConditionalExpression" }
func (*Call) Type() string         { return "CallExpression" }
func (*New) Type() string          { return "NewExpression" }
func (*Member) Type() string       { return "MemberExpression" }
func (*Sequence) Type() string     { return "SequenceExpression" }

// EachChild calls f for each of the node's direct children in source order.
// Absent children (an If without Else, a Try without Catch) are skipped. It
// is the one place that knows every node type's shape: Inspect, Unpack and
// the feature extractor all walk through it, and none of them allocates to
// do so.
func EachChild(n Node, f func(Node)) {
	opt := func(c Node) {
		if c != nil {
			f(c)
		}
	}
	list := func(cs []Node) {
		for _, c := range cs {
			opt(c)
		}
	}
	// An optional *Block or *Catch field must not reach f as a non-nil
	// interface holding a nil pointer.
	block := func(b *Block) {
		if b != nil {
			f(b)
		}
	}
	switch v := n.(type) {
	case *Program:
		list(v.Body)
	case *FunctionDecl:
		block(v.Body)
	case *VarDecl:
		for _, d := range v.Decls {
			f(d)
		}
	case *Declarator:
		opt(v.Init)
	case *Block:
		list(v.Body)
	case *ExprStmt:
		opt(v.X)
	case *If:
		opt(v.Cond)
		opt(v.Then)
		opt(v.Else)
	case *For:
		opt(v.Init)
		opt(v.Cond)
		opt(v.Post)
		opt(v.Body)
	case *ForIn:
		opt(v.Left)
		opt(v.Right)
		opt(v.Body)
	case *While:
		opt(v.Cond)
		opt(v.Body)
	case *DoWhile:
		opt(v.Body)
		opt(v.Cond)
	case *Return:
		opt(v.Arg)
	case *Try:
		block(v.Body)
		if v.Catch != nil {
			f(v.Catch)
		}
		block(v.Finally)
	case *Catch:
		block(v.Body)
	case *Throw:
		opt(v.Arg)
	case *Switch:
		opt(v.Disc)
		for _, c := range v.Cases {
			f(c)
		}
	case *Case:
		opt(v.Test)
		list(v.Body)
	case *Labeled:
		opt(v.Body)
	case *With:
		opt(v.Obj)
		opt(v.Body)
	case *ArrayLit:
		list(v.Elems)
	case *ObjectLit:
		for _, p := range v.Props {
			f(p)
		}
	case *Property:
		opt(v.Value)
	case *FunctionExpr:
		block(v.Body)
	case *Unary:
		opt(v.X)
	case *Update:
		opt(v.X)
	case *Binary:
		opt(v.L)
		opt(v.R)
	case *Logical:
		opt(v.L)
		opt(v.R)
	case *Assign:
		opt(v.L)
		opt(v.R)
	case *Conditional:
		opt(v.Cond)
		opt(v.Then)
		opt(v.Else)
	case *Call:
		opt(v.Callee)
		list(v.Args)
	case *New:
		opt(v.Callee)
		list(v.Args)
	case *Member:
		opt(v.Obj)
		opt(v.Prop)
	case *Sequence:
		list(v.Exprs)
	}
}

// Inspect walks the tree rooted at n in depth-first order, calling f for
// each node. If f returns false the node's children are skipped.
func Inspect(n Node, f func(Node) bool) {
	if n == nil {
		return
	}
	var visit func(Node)
	visit = func(n Node) {
		if f(n) {
			EachChild(n, visit)
		}
	}
	visit(n)
}
