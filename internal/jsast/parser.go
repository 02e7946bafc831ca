package jsast

import "fmt"

// maxDepth bounds the depth of the tree Parse returns, the Program at depth
// zero. The deepest tree in the Table 3 corpus, the live crawl and every
// antiadblock template is 21 levels down; a request body of a megabyte of
// '(' asked for half a million, and Go's answer to that is not a panic a
// server can recover but the death of the process. Everything that walks a
// tree recursively (EachChild's callers, Print, the unpacker's constant
// folder) inherits the bound from here.
const maxDepth = 512

// Parse parses JavaScript source into a Program. It accepts the ES5 subset
// used by real-world anti-adblock scripts: all statements, function
// declarations and expressions, and the full expression grammar including
// regex literals, with automatic semicolon insertion. A script nested deeper
// than maxDepth is refused with a *SyntaxError like any other it cannot
// parse.
func Parse(src string) (*Program, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	p := parser{toks: toks}
	prog := &Program{}
	for !p.atEOF() {
		stmt, err := p.statement()
		if err != nil {
			return nil, err
		}
		prog.Body = append(prog.Body, stmt)
	}
	prog.noEval = !p.sawEval
	return prog, nil
}

// chunkSize is how many nodes of one type a parse allocates at a time. The
// median script is some 130 nodes spread over ten common types, so a bigger
// chunk would mostly hold unused slots.
const chunkSize = 8

// chunk hands out the elements of one []T after another and makes a new
// slice when they run out. Nothing is reset or reused: a chunk is ordinary
// garbage-collected memory that lives as long as any node in it is
// reachable, so a tree may outlive its parser, be shared between goroutines
// or be kept forever, as before. All it changes is that eight nodes cost
// one allocation.
type chunk[T any] struct{ free []T }

func (c *chunk[T]) alloc() *T {
	if len(c.free) == 0 {
		c.free = make([]T, chunkSize)
	}
	n := &c.free[0]
	c.free = c.free[1:]
	return n
}

type parser struct {
	toks []Token // ends with the EOF sentinel
	i    int

	// depth is how far below the Program the node being parsed will sit;
	// reach is how far below it the deepest node the current production has
	// finished sits. See down and lift.
	depth, reach int

	// sawEval notes a call of the bare identifier eval, the only thing
	// Unpack looks for.
	sawEval bool

	// The ten node types that make up nine tenths of a tree.
	idents      chunk[Ident]
	members     chunk[Member]
	literals    chunk[Literal]
	exprStmts   chunk[ExprStmt]
	calls       chunk[Call]
	binaries    chunk[Binary]
	blocks      chunk[Block]
	varDecls    chunk[VarDecl]
	declarators chunk[Declarator]
	assigns     chunk[Assign]
}

func (p *parser) ident(name string) *Ident {
	n := p.idents.alloc()
	n.Name = name
	return n
}

func (p *parser) literal(kind LiteralKind, value string) *Literal {
	n := p.literals.alloc()
	n.Kind, n.Value = kind, value
	return n
}

func (p *parser) member(obj, prop Node, computed bool) *Member {
	n := p.members.alloc()
	n.Obj, n.Prop, n.Computed = obj, prop, computed
	return n
}

// down enters the production of a node one level below the one being
// parsed and returns the enclosing production's reach, which up needs back.
// Every recursion of the parser passes through here, so the bound on depth
// is also the bound on the parser's own stack. An error abandons the parse,
// so error paths do not call up.
func (p *parser) down() (outer int, err error) {
	outer = p.reach
	p.depth++
	p.reach = p.depth
	if p.depth > maxDepth {
		return outer, p.tooDeep()
	}
	return outer, nil
}

// up leaves the production down entered: whatever it built is part of what
// the enclosing production has built.
func (p *parser) up(outer int) {
	p.depth--
	if outer > p.reach {
		p.reach = outer
	}
}

// lift accounts for a node put on top of operands that were parsed before
// it was known to exist — the left side of a.b, f(), a+b, a=b, a?b:c, a,b
// and a++. Such chains are built in loops, not by recursion, so depth never
// sees them; reach does: everything the current production has built moves
// one level down. That may count a level too many (a sibling built earlier
// in the same production moves too), never one too few.
func (p *parser) lift() error {
	p.reach++
	if p.reach > maxDepth {
		return p.tooDeep()
	}
	return nil
}

func (p *parser) tooDeep() error {
	return p.errorf("nested deeper than %d levels", maxDepth)
}

func (p *parser) atEOF() bool { return p.toks[p.i].Kind == TokEOF }

// cur returns the current token: a pointer into the token slice, because a
// Token is 48 bytes and the parser looks at one several times before it
// moves on. At end of input it is the sentinel.
func (p *parser) cur() *Token { return &p.toks[p.i] }

func (p *parser) peek(k int) *Token {
	if p.i+k >= len(p.toks) {
		return &p.toks[len(p.toks)-1]
	}
	return &p.toks[p.i+k]
}

func (p *parser) next() *Token {
	t := p.cur()
	if !p.atEOF() {
		p.i++
	}
	return t
}

func (p *parser) errorf(format string, args ...interface{}) error {
	t := p.cur()
	return &SyntaxError{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) atPunct(s string) bool {
	t := p.cur()
	return t.Kind == TokPunct && t.Text == s
}

func (p *parser) atKeyword(s string) bool {
	t := p.cur()
	return t.Kind == TokKeyword && t.Text == s
}

func (p *parser) eatPunct(s string) bool {
	if p.atPunct(s) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.eatPunct(s) {
		return p.errorf("expected %q, found %s", s, p.cur())
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.cur()
	if t.Kind != TokIdent {
		return "", p.errorf("expected identifier, found %s", t)
	}
	p.i++
	return t.Text, nil
}

// semicolon consumes a statement terminator, applying automatic semicolon
// insertion: an explicit ';', a '}' (not consumed), end of input, or a line
// break before the next token all terminate the statement.
func (p *parser) semicolon() error {
	if p.eatPunct(";") {
		return nil
	}
	if p.atEOF() || p.atPunct("}") || p.cur().NewlineBefore {
		return nil
	}
	return p.errorf("expected ';', found %s", p.cur())
}

// ---- Statements ----

func (p *parser) statement() (Node, error) {
	if p.atPunct("{") {
		return p.block() // which goes down itself
	}
	outer, err := p.down()
	if err != nil {
		return nil, err
	}
	stmt, err := p.statementBelow()
	p.up(outer)
	return stmt, err
}

// statementBelow parses any statement but a block, one level down already.
func (p *parser) statementBelow() (Node, error) {
	t := p.cur()
	switch {
	case t.Kind == TokPunct && t.Text == ";":
		p.i++
		return &Empty{}, nil
	case t.Kind == TokKeyword:
		switch t.Text {
		case "var":
			return p.varStatement()
		case "function":
			return p.functionDecl()
		case "if":
			return p.ifStatement()
		case "for":
			return p.forStatement()
		case "while":
			return p.whileStatement()
		case "do":
			return p.doWhileStatement()
		case "return":
			return p.returnStatement()
		case "try":
			return p.tryStatement()
		case "throw":
			return p.throwStatement()
		case "switch":
			return p.switchStatement()
		case "break":
			p.i++
			b := &Break{}
			if t := p.cur(); t.Kind == TokIdent && !t.NewlineBefore {
				b.Label = t.Text
				p.i++
			}
			return b, p.semicolon()
		case "continue":
			p.i++
			c := &Continue{}
			if t := p.cur(); t.Kind == TokIdent && !t.NewlineBefore {
				c.Label = t.Text
				p.i++
			}
			return c, p.semicolon()
		case "with":
			return p.withStatement()
		case "debugger":
			p.i++
			return &Debugger{}, p.semicolon()
		}
	case t.Kind == TokIdent:
		// Labeled statement: ident ':' stmt.
		if n := p.peek(1); n.Kind == TokPunct && n.Text == ":" {
			p.i += 2
			body, err := p.statement()
			if err != nil {
				return nil, err
			}
			return &Labeled{Label: t.Text, Body: body}, nil
		}
	}
	// Expression statement.
	x, err := p.expression(false)
	if err != nil {
		return nil, err
	}
	stmt := p.exprStmts.alloc()
	stmt.X = x
	return stmt, p.semicolon()
}

func (p *parser) block() (*Block, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	outer, err := p.down()
	if err != nil {
		return nil, err
	}
	b := p.blocks.alloc()
	for !p.atPunct("}") {
		if p.atEOF() {
			return nil, p.errorf("unterminated block")
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		b.Body = append(b.Body, s)
	}
	p.i++ // consume '}'
	p.up(outer)
	return b, nil
}

func (p *parser) varStatement() (Node, error) {
	decl, err := p.varDecl(false)
	if err != nil {
		return nil, err
	}
	return decl, p.semicolon()
}

// varDecl parses 'var' declarators; noIn suppresses 'in' as a binary
// operator inside initializers (for-in disambiguation).
func (p *parser) varDecl(noIn bool) (*VarDecl, error) {
	p.i++ // 'var'
	// The declarators sit one level below the declaration.
	outer, err := p.down()
	if err != nil {
		return nil, err
	}
	v := p.varDecls.alloc()
	for {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		d := p.declarators.alloc()
		d.Name = name
		if p.eatPunct("=") {
			init, err := p.assignExpr(noIn)
			if err != nil {
				return nil, err
			}
			d.Init = init
		}
		v.Decls = append(v.Decls, d)
		if !p.eatPunct(",") {
			p.up(outer)
			return v, nil
		}
	}
}

func (p *parser) functionDecl() (Node, error) {
	p.i++ // 'function'
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	params, body, err := p.functionRest()
	if err != nil {
		return nil, err
	}
	return &FunctionDecl{Name: name, Params: params, Body: body}, nil
}

func (p *parser) functionRest() ([]string, *Block, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, nil, err
	}
	var params []string
	for !p.atPunct(")") {
		name, err := p.expectIdent()
		if err != nil {
			return nil, nil, err
		}
		params = append(params, name)
		if !p.eatPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, nil, err
	}
	return params, body, nil
}

func (p *parser) parenExpr() (Node, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	x, err := p.expression(false)
	if err != nil {
		return nil, err
	}
	return x, p.expectPunct(")")
}

func (p *parser) ifStatement() (Node, error) {
	p.i++ // 'if'
	cond, err := p.parenExpr()
	if err != nil {
		return nil, err
	}
	then, err := p.statement()
	if err != nil {
		return nil, err
	}
	stmt := &If{Cond: cond, Then: then}
	if p.atKeyword("else") {
		p.i++
		els, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmt.Else = els
	}
	return stmt, nil
}

func (p *parser) forStatement() (Node, error) {
	p.i++ // 'for'
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var init Node
	var err error
	switch {
	case p.atPunct(";"):
		// no init
	case p.atKeyword("var"):
		// The declaration is a child here, not the statement itself.
		outer, err := p.down()
		if err != nil {
			return nil, err
		}
		init, err = p.varDecl(true)
		if err != nil {
			return nil, err
		}
		p.up(outer)
	default:
		init, err = p.expression(true)
		if err != nil {
			return nil, err
		}
	}
	if p.atKeyword("in") {
		p.i++
		right, err := p.expression(false)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.statement()
		if err != nil {
			return nil, err
		}
		return &ForIn{Left: init, Right: right, Body: body}, nil
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	f := &For{Init: init}
	if !p.atPunct(";") {
		f.Cond, err = p.expression(false)
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if !p.atPunct(")") {
		f.Post, err = p.expression(false)
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	f.Body, err = p.statement()
	return f, err
}

func (p *parser) whileStatement() (Node, error) {
	p.i++ // 'while'
	cond, err := p.parenExpr()
	if err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &While{Cond: cond, Body: body}, nil
}

func (p *parser) doWhileStatement() (Node, error) {
	p.i++ // 'do'
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	if !p.atKeyword("while") {
		return nil, p.errorf("expected 'while' after do body")
	}
	p.i++
	cond, err := p.parenExpr()
	if err != nil {
		return nil, err
	}
	return &DoWhile{Body: body, Cond: cond}, p.semicolon()
}

func (p *parser) returnStatement() (Node, error) {
	p.i++ // 'return'
	r := &Return{}
	t := p.cur()
	if !(t.Kind == TokEOF || p.atPunct(";") || p.atPunct("}") || t.NewlineBefore) {
		arg, err := p.expression(false)
		if err != nil {
			return nil, err
		}
		r.Arg = arg
	}
	return r, p.semicolon()
}

func (p *parser) tryStatement() (Node, error) {
	p.i++ // 'try'
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	stmt := &Try{Body: body}
	if p.atKeyword("catch") {
		p.i++
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		param, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		outer, err := p.down() // the clause's level
		if err != nil {
			return nil, err
		}
		cbody, err := p.block()
		if err != nil {
			return nil, err
		}
		p.up(outer)
		stmt.Catch = &Catch{Param: param, Body: cbody}
	}
	if p.atKeyword("finally") {
		p.i++
		fbody, err := p.block()
		if err != nil {
			return nil, err
		}
		stmt.Finally = fbody
	}
	if stmt.Catch == nil && stmt.Finally == nil {
		return nil, p.errorf("try without catch or finally")
	}
	return stmt, nil
}

func (p *parser) throwStatement() (Node, error) {
	p.i++ // 'throw'
	arg, err := p.expression(false)
	if err != nil {
		return nil, err
	}
	return &Throw{Arg: arg}, p.semicolon()
}

func (p *parser) switchStatement() (Node, error) {
	p.i++ // 'switch'
	disc, err := p.parenExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	sw := &Switch{Disc: disc}
	for !p.atPunct("}") {
		outer, err := p.down() // the case's level
		if err != nil {
			return nil, err
		}
		c := &Case{}
		switch {
		case p.atKeyword("case"):
			p.i++
			c.Test, err = p.expression(false)
			if err != nil {
				return nil, err
			}
		case p.atKeyword("default"):
			p.i++
		default:
			return nil, p.errorf("expected 'case' or 'default', found %s", p.cur())
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		for !p.atPunct("}") && !p.atKeyword("case") && !p.atKeyword("default") {
			s, err := p.statement()
			if err != nil {
				return nil, err
			}
			c.Body = append(c.Body, s)
		}
		p.up(outer)
		sw.Cases = append(sw.Cases, c)
	}
	p.i++ // '}'
	return sw, nil
}

func (p *parser) withStatement() (Node, error) {
	p.i++ // 'with'
	obj, err := p.parenExpr()
	if err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &With{Obj: obj, Body: body}, nil
}

// ---- Expressions ----

// expression parses a full (possibly comma-sequenced) expression.
func (p *parser) expression(noIn bool) (Node, error) {
	x, err := p.assignExpr(noIn)
	if err != nil {
		return nil, err
	}
	if !p.atPunct(",") {
		return x, nil
	}
	if err := p.lift(); err != nil {
		return nil, err
	}
	outer, err := p.down() // the elements' level
	if err != nil {
		return nil, err
	}
	seq := &Sequence{Exprs: []Node{x}}
	for p.eatPunct(",") {
		y, err := p.assignExpr(noIn)
		if err != nil {
			return nil, err
		}
		seq.Exprs = append(seq.Exprs, y)
	}
	p.up(outer)
	return seq, nil
}

func isAssignOp(op string) bool {
	switch op {
	case "=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", ">>>=", "&=", "|=", "^=":
		return true
	}
	return false
}

// assignExpr parses one expression with no top-level comma. Every operand
// position — statement, argument, element, initializer, parenthesis — gets
// its expression from here, one level below whatever holds it.
func (p *parser) assignExpr(noIn bool) (Node, error) {
	outer, err := p.down()
	if err != nil {
		return nil, err
	}
	x, err := p.assignExprBelow(noIn)
	p.up(outer)
	return x, err
}

func (p *parser) assignExprBelow(noIn bool) (Node, error) {
	left, err := p.conditionalExpr(noIn)
	if err != nil {
		return nil, err
	}
	if t := p.cur(); t.Kind == TokPunct && isAssignOp(t.Text) {
		p.i++
		if err := p.lift(); err != nil {
			return nil, err
		}
		right, err := p.assignExpr(noIn)
		if err != nil {
			return nil, err
		}
		n := p.assigns.alloc()
		n.Op, n.L, n.R = t.Text, left, right
		return n, nil
	}
	return left, nil
}

func (p *parser) conditionalExpr(noIn bool) (Node, error) {
	cond, err := p.binaryExpr(0, noIn)
	if err != nil {
		return nil, err
	}
	if !p.eatPunct("?") {
		return cond, nil
	}
	if err := p.lift(); err != nil {
		return nil, err
	}
	then, err := p.assignExpr(false)
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	els, err := p.assignExpr(noIn)
	if err != nil {
		return nil, err
	}
	return &Conditional{Cond: cond, Then: then, Else: els}, nil
}

// binaryPrec returns the precedence of a binary/logical operator token, or
// -1 when the token is not a binary operator. Higher binds tighter.
func binaryPrec(t *Token, noIn bool) int {
	if t.Kind == TokKeyword {
		switch t.Text {
		case "in":
			if noIn {
				return -1
			}
			return 7
		case "instanceof":
			return 7
		}
		return -1
	}
	if t.Kind != TokPunct {
		return -1
	}
	switch t.Text {
	case "||":
		return 1
	case "&&":
		return 2
	case "|":
		return 3
	case "^":
		return 4
	case "&":
		return 5
	case "==", "!=", "===", "!==":
		return 6
	case "<", ">", "<=", ">=":
		return 7
	case "<<", ">>", ">>>":
		return 8
	case "+", "-":
		return 9
	case "*", "/", "%":
		return 10
	}
	return -1
}

func (p *parser) binaryExpr(minPrec int, noIn bool) (Node, error) {
	left, err := p.unaryExpr(noIn)
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		prec := binaryPrec(t, noIn)
		if prec < 0 || prec < minPrec {
			return left, nil
		}
		p.i++
		if err := p.lift(); err != nil {
			return nil, err
		}
		outer, err := p.down()
		if err != nil {
			return nil, err
		}
		right, err := p.binaryExpr(prec+1, noIn)
		if err != nil {
			return nil, err
		}
		p.up(outer)
		if t.Text == "&&" || t.Text == "||" {
			left = &Logical{Op: t.Text, L: left, R: right}
		} else {
			n := p.binaries.alloc()
			n.Op, n.L, n.R = t.Text, left, right
			left = n
		}
	}
}

func (p *parser) unaryExpr(noIn bool) (Node, error) {
	t := p.cur()
	switch {
	case t.Kind == TokPunct && (t.Text == "!" || t.Text == "~" || t.Text == "+" || t.Text == "-"),
		t.Kind == TokKeyword && (t.Text == "typeof" || t.Text == "void" || t.Text == "delete"):
		x, err := p.prefixOperand(noIn)
		if err != nil {
			return nil, err
		}
		return &Unary{Op: t.Text, X: x}, nil
	case t.Kind == TokPunct && (t.Text == "++" || t.Text == "--"):
		x, err := p.prefixOperand(noIn)
		if err != nil {
			return nil, err
		}
		return &Update{Op: t.Text, Prefix: true, X: x}, nil
	}
	return p.postfixExpr(noIn)
}

// prefixOperand consumes a prefix operator and parses what it applies to,
// one level down.
func (p *parser) prefixOperand(noIn bool) (Node, error) {
	p.i++
	outer, err := p.down()
	if err != nil {
		return nil, err
	}
	x, err := p.unaryExpr(noIn)
	p.up(outer)
	return x, err
}

func (p *parser) postfixExpr(noIn bool) (Node, error) {
	x, err := p.callExpr(noIn)
	if err != nil {
		return nil, err
	}
	if t := p.cur(); t.Kind == TokPunct && (t.Text == "++" || t.Text == "--") && !t.NewlineBefore {
		p.i++
		return &Update{Op: t.Text, X: x}, p.lift()
	}
	return x, nil
}

// callExpr parses member accesses and calls left-associatively.
func (p *parser) callExpr(noIn bool) (Node, error) {
	var x Node
	var err error
	if p.atKeyword("new") {
		x, err = p.newExpr()
	} else {
		x, err = p.primaryExpr()
	}
	if err != nil {
		return nil, err
	}
	for {
		if !p.atPunct("(") {
			var ok bool
			x, ok, err = p.memberAccess(x)
			if err != nil {
				return nil, err
			}
			if !ok {
				return x, nil
			}
			continue
		}
		if err := p.lift(); err != nil {
			return nil, err
		}
		args, err := p.arguments()
		if err != nil {
			return nil, err
		}
		if id, ok := x.(*Ident); ok && id.Name == "eval" {
			p.sawEval = true
		}
		call := p.calls.alloc()
		call.Callee, call.Args = x, args
		x = call
	}
}

// memberAccess parses one .name or [expr] applied to obj, if that is what
// comes next.
func (p *parser) memberAccess(obj Node) (Node, bool, error) {
	switch {
	case p.eatPunct("."):
		t := p.cur()
		if t.Kind != TokIdent && t.Kind != TokKeyword {
			return nil, false, p.errorf("expected property name, found %s", t)
		}
		p.i++
		return p.member(obj, p.ident(t.Text), false), true, p.lift()
	case p.eatPunct("["):
		if err := p.lift(); err != nil {
			return nil, false, err
		}
		idx, err := p.expression(false)
		if err != nil {
			return nil, false, err
		}
		return p.member(obj, idx, true), true, p.expectPunct("]")
	}
	return obj, false, nil
}

func (p *parser) newExpr() (Node, error) {
	p.i++ // 'new'
	// The constructor expression sits one level below the new.
	outer, err := p.down()
	if err != nil {
		return nil, err
	}
	var callee Node
	if p.atKeyword("new") {
		callee, err = p.newExpr()
	} else {
		callee, err = p.primaryExpr()
	}
	if err != nil {
		return nil, err
	}
	// Member accesses bind to the constructor expression before the
	// argument list: new a.b.C(x).
	for more := true; more; {
		callee, more, err = p.memberAccess(callee)
		if err != nil {
			return nil, err
		}
	}
	p.up(outer)
	n := &New{Callee: callee}
	if p.atPunct("(") {
		args, err := p.arguments()
		if err != nil {
			return nil, err
		}
		n.Args = args
	}
	return n, nil
}

func (p *parser) arguments() ([]Node, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []Node
	for !p.atPunct(")") {
		a, err := p.assignExpr(false)
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if !p.eatPunct(",") {
			break
		}
	}
	return args, p.expectPunct(")")
}

func (p *parser) primaryExpr() (Node, error) {
	t := p.cur()
	switch t.Kind {
	case TokIdent:
		p.i++
		return p.ident(t.Text), nil
	case TokNumber:
		p.i++
		return p.literal(LitNumber, t.Text), nil
	case TokString:
		p.i++
		return p.literal(LitString, t.Text), nil
	case TokRegex:
		p.i++
		return p.literal(LitRegex, t.Text), nil
	case TokKeyword:
		switch t.Text {
		case "this":
			p.i++
			return &This{}, nil
		case "true", "false":
			p.i++
			return p.literal(LitBool, t.Text), nil
		case "null":
			p.i++
			return p.literal(LitNull, "null"), nil
		case "undefined":
			p.i++
			return p.literal(LitUndefined, "undefined"), nil
		case "function":
			p.i++
			name := ""
			if p.cur().Kind == TokIdent {
				name = p.next().Text
			}
			params, body, err := p.functionRest()
			if err != nil {
				return nil, err
			}
			return &FunctionExpr{Name: name, Params: params, Body: body}, nil
		}
		return nil, p.errorf("unexpected keyword %q", t.Text)
	case TokPunct:
		switch t.Text {
		case "(":
			return p.parenExpr()
		case "[":
			return p.arrayLiteral()
		case "{":
			return p.objectLiteral()
		}
		return nil, p.errorf("unexpected token %q", t.Text)
	default:
		return nil, p.errorf("unexpected end of input")
	}
}

func (p *parser) arrayLiteral() (Node, error) {
	p.i++ // '['
	arr := &ArrayLit{}
	for !p.atPunct("]") {
		if p.eatPunct(",") {
			continue // elision
		}
		e, err := p.assignExpr(false)
		if err != nil {
			return nil, err
		}
		arr.Elems = append(arr.Elems, e)
		if !p.atPunct("]") {
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
	}
	p.i++ // ']'
	return arr, nil
}

func (p *parser) objectLiteral() (Node, error) {
	p.i++ // '{'
	// The properties sit one level below the literal, their values two.
	outer, err := p.down()
	if err != nil {
		return nil, err
	}
	obj := &ObjectLit{}
	for !p.atPunct("}") {
		t := p.cur()
		var key string
		switch t.Kind {
		case TokIdent, TokKeyword, TokString, TokNumber:
			key = t.Text
			p.i++
		default:
			return nil, p.errorf("expected property key, found %s", t)
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		val, err := p.assignExpr(false)
		if err != nil {
			return nil, err
		}
		obj.Props = append(obj.Props, &Property{Key: key, Value: val})
		if !p.eatPunct(",") {
			break
		}
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	p.up(outer)
	return obj, nil
}
