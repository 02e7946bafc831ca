package jsast

import (
	"fmt"
	"sync"
)

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
	sc := scratchPool.Get().(*scratch)
	prog, err := sc.parse(src)
	sc.release()
	return prog, err
}

// scratch is the memory a parse uses and no tree keeps: the token stream
// and the lists under construction. Parse takes one from scratchPool and
// clears what it used before putting it back, on every path out, so a
// pooled scratch holds no script's text and no tree's nodes.
type scratch struct {
	toks   []Token
	nodes  lists[Node]
	decls  lists[*Declarator]
	props  lists[*Property]
	cases  lists[*Case]
	params lists[string]
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxPooledTokens bounds the scratch the pool keeps: one whose script had
// more tokens than this is left to the collector, so a megabyte of one-byte
// tokens is paid for once, not held for good.
const maxPooledTokens = 1 << 14

func (sc *scratch) parse(src string) (*Program, error) {
	var err error
	sc.toks, err = tokenize(src, sc.toks)
	if err != nil {
		return nil, err
	}
	p := parser{toks: sc.toks, sc: sc}
	prog := &Program{}
	m := sc.nodes.mark()
	for !p.atEOF() {
		stmt, err := p.statement()
		if err != nil {
			return nil, err
		}
		sc.nodes.push(stmt)
	}
	sc.nodes.finish(m, &prog.Body)
	sc.nodes.seal()
	sc.decls.seal()
	sc.props.seal()
	sc.cases.seal()
	sc.params.seal()
	prog.noEval = !p.sawEval
	return prog, nil
}

// release clears what the parse used and puts sc back in the pool, unless
// its token buffer outgrew maxPooledTokens. No list outgrows the tokens it
// was parsed from, so that bounds the whole scratch.
func (sc *scratch) release() {
	if cap(sc.toks) > maxPooledTokens {
		return
	}
	clear(sc.toks)
	sc.toks = sc.toks[:0]
	sc.nodes.reset()
	sc.decls.reset()
	sc.props.reset()
	sc.cases.reset()
	sc.params.reset()
	scratchPool.Put(sc)
}

// lists builds the slices of one element type — statement bodies, argument
// lists, declarators, … — for one parse. The elements of a list still being
// parsed sit on top of open, above those of every list around it; finish
// moves them to done and notes which field of which node they belong to.
// seal, once the whole tree is parsed, makes one array exactly as long as
// done and hands each field its range of it. A tree's lists thus cost one
// allocation per element type instead of a growing append per list, and
// each is cut with a full slice expression, so that appending to one (as
// Unpack does to a Program's body) copies it instead of overwriting its
// neighbour.
type lists[T any] struct {
	open, done []T
	fields     []listField[T]
}

type listField[T any] struct {
	dst    *[]T
	lo, hi int
}

// mark returns where the list about to be parsed begins on open.
func (l *lists[T]) mark() int { return len(l.open) }

func (l *lists[T]) push(x T) { l.open = append(l.open, x) }

// finish closes the list that began at mark and files it for *dst. An
// empty list leaves *dst nil.
func (l *lists[T]) finish(mark int, dst *[]T) {
	if len(l.open) == mark {
		return
	}
	lo := len(l.done)
	l.done = append(l.done, l.open[mark:]...)
	clear(l.open[mark:])
	l.open = l.open[:mark]
	l.fields = append(l.fields, listField[T]{dst, lo, len(l.done)})
}

// seal gives every finished list its slice.
func (l *lists[T]) seal() {
	if len(l.done) == 0 {
		return
	}
	slab := make([]T, len(l.done))
	copy(slab, l.done)
	for _, f := range l.fields {
		*f.dst = slab[f.lo:f.hi:f.hi]
	}
}

// reset empties l, after a parse that sealed it or one abandoned midway.
func (l *lists[T]) reset() {
	clear(l.open)
	clear(l.done)
	clear(l.fields)
	l.open, l.done, l.fields = l.open[:0], l.done[:0], l.fields[:0]
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
	sc   *scratch

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

// cur returns the current token: a pointer into the token slice, because
// the parser looks at one several times before it moves on. At end of input
// it is the sentinel.
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
	return &SyntaxError{Line: int(t.Line), Col: int(t.Col), Msg: fmt.Sprintf(format, args...)}
}

// at reports whether the current token is the punctuator or keyword op.
func (p *parser) at(op Op) bool { return p.toks[p.i].Op == op }

func (p *parser) eat(op Op) bool {
	if p.at(op) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(op Op) error {
	if !p.eat(op) {
		return p.errorf("expected %q, found %s", opText[op], p.cur())
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
	if p.eat(opSemi) {
		return nil
	}
	if p.atEOF() || p.at(opRBrace) || p.cur().NewlineBefore {
		return nil
	}
	return p.errorf("expected ';', found %s", p.cur())
}

// ---- Statements ----

func (p *parser) statement() (Node, error) {
	if p.at(opLBrace) {
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
	switch t.Kind {
	case TokPunct:
		if t.Op == opSemi {
			p.i++
			return &Empty{}, nil
		}
	case TokKeyword:
		switch t.Op {
		case kwVar:
			return p.varStatement()
		case kwFunction:
			return p.functionDecl()
		case kwIf:
			return p.ifStatement()
		case kwFor:
			return p.forStatement()
		case kwWhile:
			return p.whileStatement()
		case kwDo:
			return p.doWhileStatement()
		case kwReturn:
			return p.returnStatement()
		case kwTry:
			return p.tryStatement()
		case kwThrow:
			return p.throwStatement()
		case kwSwitch:
			return p.switchStatement()
		case kwBreak:
			p.i++
			b := &Break{}
			if t := p.cur(); t.Kind == TokIdent && !t.NewlineBefore {
				b.Label = t.Text
				p.i++
			}
			return b, p.semicolon()
		case kwContinue:
			p.i++
			c := &Continue{}
			if t := p.cur(); t.Kind == TokIdent && !t.NewlineBefore {
				c.Label = t.Text
				p.i++
			}
			return c, p.semicolon()
		case kwWith:
			return p.withStatement()
		case kwDebugger:
			p.i++
			return &Debugger{}, p.semicolon()
		}
	case TokIdent:
		// Labeled statement: ident ':' stmt.
		if p.peek(1).Op == opColon {
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
	if err := p.expect(opLBrace); err != nil {
		return nil, err
	}
	outer, err := p.down()
	if err != nil {
		return nil, err
	}
	b := p.blocks.alloc()
	m := p.sc.nodes.mark()
	for !p.at(opRBrace) {
		if p.atEOF() {
			return nil, p.errorf("unterminated block")
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		p.sc.nodes.push(s)
	}
	p.sc.nodes.finish(m, &b.Body)
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
	m := p.sc.decls.mark()
	for {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		d := p.declarators.alloc()
		d.Name = name
		if p.eat(opAssign) {
			init, err := p.assignExpr(noIn)
			if err != nil {
				return nil, err
			}
			d.Init = init
		}
		p.sc.decls.push(d)
		if !p.eat(opComma) {
			p.sc.decls.finish(m, &v.Decls)
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
	fn := &FunctionDecl{Name: name}
	fn.Body, err = p.functionRest(&fn.Params)
	if err != nil {
		return nil, err
	}
	return fn, nil
}

// functionRest parses a function's parameter list, filed for *params, and
// its body.
func (p *parser) functionRest(params *[]string) (*Block, error) {
	if err := p.expect(opLParen); err != nil {
		return nil, err
	}
	m := p.sc.params.mark()
	for !p.at(opRParen) {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		p.sc.params.push(name)
		if !p.eat(opComma) {
			break
		}
	}
	if err := p.expect(opRParen); err != nil {
		return nil, err
	}
	p.sc.params.finish(m, params)
	return p.block()
}

func (p *parser) parenExpr() (Node, error) {
	if err := p.expect(opLParen); err != nil {
		return nil, err
	}
	x, err := p.expression(false)
	if err != nil {
		return nil, err
	}
	return x, p.expect(opRParen)
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
	if p.at(kwElse) {
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
	if err := p.expect(opLParen); err != nil {
		return nil, err
	}
	var init Node
	var err error
	switch {
	case p.at(opSemi):
		// no init
	case p.at(kwVar):
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
	if p.at(kwIn) {
		p.i++
		right, err := p.expression(false)
		if err != nil {
			return nil, err
		}
		if err := p.expect(opRParen); err != nil {
			return nil, err
		}
		body, err := p.statement()
		if err != nil {
			return nil, err
		}
		return &ForIn{Left: init, Right: right, Body: body}, nil
	}
	if err := p.expect(opSemi); err != nil {
		return nil, err
	}
	f := &For{Init: init}
	if !p.at(opSemi) {
		f.Cond, err = p.expression(false)
		if err != nil {
			return nil, err
		}
	}
	if err := p.expect(opSemi); err != nil {
		return nil, err
	}
	if !p.at(opRParen) {
		f.Post, err = p.expression(false)
		if err != nil {
			return nil, err
		}
	}
	if err := p.expect(opRParen); err != nil {
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
	if !p.at(kwWhile) {
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
	if !(t.Kind == TokEOF || t.Op == opSemi || t.Op == opRBrace || t.NewlineBefore) {
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
	if p.at(kwCatch) {
		p.i++
		if err := p.expect(opLParen); err != nil {
			return nil, err
		}
		param, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expect(opRParen); err != nil {
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
	if p.at(kwFinally) {
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
	if err := p.expect(opLBrace); err != nil {
		return nil, err
	}
	sw := &Switch{Disc: disc}
	cases := p.sc.cases.mark()
	for !p.at(opRBrace) {
		outer, err := p.down() // the case's level
		if err != nil {
			return nil, err
		}
		c := &Case{}
		switch {
		case p.at(kwCase):
			p.i++
			c.Test, err = p.expression(false)
			if err != nil {
				return nil, err
			}
		case p.at(kwDefault):
			p.i++
		default:
			return nil, p.errorf("expected 'case' or 'default', found %s", p.cur())
		}
		if err := p.expect(opColon); err != nil {
			return nil, err
		}
		m := p.sc.nodes.mark()
		for op := p.cur().Op; op != opRBrace && op != kwCase && op != kwDefault; op = p.cur().Op {
			s, err := p.statement()
			if err != nil {
				return nil, err
			}
			p.sc.nodes.push(s)
		}
		p.sc.nodes.finish(m, &c.Body)
		p.up(outer)
		p.sc.cases.push(c)
	}
	p.sc.cases.finish(cases, &sw.Cases)
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
	if !p.at(opComma) {
		return x, nil
	}
	if err := p.lift(); err != nil {
		return nil, err
	}
	outer, err := p.down() // the elements' level
	if err != nil {
		return nil, err
	}
	seq := &Sequence{}
	m := p.sc.nodes.mark()
	p.sc.nodes.push(x)
	for p.eat(opComma) {
		y, err := p.assignExpr(noIn)
		if err != nil {
			return nil, err
		}
		p.sc.nodes.push(y)
	}
	p.sc.nodes.finish(m, &seq.Exprs)
	p.up(outer)
	return seq, nil
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
	if t := p.cur(); opAssign <= t.Op && t.Op <= opXorAssign {
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
	if !p.eat(opQuestion) {
		return cond, nil
	}
	if err := p.lift(); err != nil {
		return nil, err
	}
	then, err := p.assignExpr(false)
	if err != nil {
		return nil, err
	}
	if err := p.expect(opColon); err != nil {
		return nil, err
	}
	els, err := p.assignExpr(noIn)
	if err != nil {
		return nil, err
	}
	return &Conditional{Cond: cond, Then: then, Else: els}, nil
}

// binaryPrecs holds each binary or logical operator's precedence, higher
// binding tighter; every other code's is zero.
var binaryPrecs = [opCount]int8{
	opOrOr: 1, opAndAnd: 2, opOr: 3, opXor: 4, opAnd: 5,
	opEq: 6, opNe: 6, opStrictEq: 6, opStrictNe: 6,
	opLt: 7, opGt: 7, opLe: 7, opGe: 7, kwIn: 7, kwInstanceof: 7,
	opShl: 8, opShr: 8, opUshr: 8,
	opPlus: 9, opMinus: 9,
	opStar: 10, opSlash: 10, opPercent: 10,
}

// binaryPrec returns the precedence of a binary/logical operator token, or
// -1 when the token is not a binary operator. Higher binds tighter.
func binaryPrec(t *Token, noIn bool) int {
	if noIn && t.Op == kwIn {
		return -1
	}
	if prec := binaryPrecs[t.Op]; prec > 0 {
		return int(prec)
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
		if t.Op == opAndAnd || t.Op == opOrOr {
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
	switch t.Op {
	case opNot, opTilde, opPlus, opMinus, kwTypeof, kwVoid, kwDelete:
		x, err := p.prefixOperand(noIn)
		if err != nil {
			return nil, err
		}
		return &Unary{Op: t.Text, X: x}, nil
	case opInc, opDec:
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
	if t := p.cur(); (t.Op == opInc || t.Op == opDec) && !t.NewlineBefore {
		p.i++
		return &Update{Op: t.Text, X: x}, p.lift()
	}
	return x, nil
}

// callExpr parses member accesses and calls left-associatively.
func (p *parser) callExpr(noIn bool) (Node, error) {
	var x Node
	var err error
	if p.at(kwNew) {
		x, err = p.newExpr()
	} else {
		x, err = p.primaryExpr()
	}
	if err != nil {
		return nil, err
	}
	for {
		if !p.at(opLParen) {
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
		if id, ok := x.(*Ident); ok && id.Name == "eval" {
			p.sawEval = true
		}
		call := p.calls.alloc()
		call.Callee = x
		if err := p.arguments(&call.Args); err != nil {
			return nil, err
		}
		x = call
	}
}

// memberAccess parses one .name or [expr] applied to obj, if that is what
// comes next.
func (p *parser) memberAccess(obj Node) (Node, bool, error) {
	switch {
	case p.eat(opDot):
		t := p.cur()
		if t.Kind != TokIdent && t.Kind != TokKeyword {
			return nil, false, p.errorf("expected property name, found %s", t)
		}
		p.i++
		return p.member(obj, p.ident(t.Text), false), true, p.lift()
	case p.eat(opLBracket):
		if err := p.lift(); err != nil {
			return nil, false, err
		}
		idx, err := p.expression(false)
		if err != nil {
			return nil, false, err
		}
		return p.member(obj, idx, true), true, p.expect(opRBracket)
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
	if p.at(kwNew) {
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
	if p.at(opLParen) {
		if err := p.arguments(&n.Args); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// arguments parses a parenthesized argument list, filed for *args.
func (p *parser) arguments(args *[]Node) error {
	if err := p.expect(opLParen); err != nil {
		return err
	}
	m := p.sc.nodes.mark()
	for !p.at(opRParen) {
		a, err := p.assignExpr(false)
		if err != nil {
			return err
		}
		p.sc.nodes.push(a)
		if !p.eat(opComma) {
			break
		}
	}
	if err := p.expect(opRParen); err != nil {
		return err
	}
	p.sc.nodes.finish(m, args)
	return nil
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
		switch t.Op {
		case kwThis:
			p.i++
			return &This{}, nil
		case kwTrue, kwFalse:
			p.i++
			return p.literal(LitBool, t.Text), nil
		case kwNull:
			p.i++
			return p.literal(LitNull, "null"), nil
		case kwUndefined:
			p.i++
			return p.literal(LitUndefined, "undefined"), nil
		case kwFunction:
			p.i++
			fn := &FunctionExpr{}
			if p.cur().Kind == TokIdent {
				fn.Name = p.next().Text
			}
			var err error
			if fn.Body, err = p.functionRest(&fn.Params); err != nil {
				return nil, err
			}
			return fn, nil
		}
		return nil, p.errorf("unexpected keyword %q", t.Text)
	case TokPunct:
		switch t.Op {
		case opLParen:
			return p.parenExpr()
		case opLBracket:
			return p.arrayLiteral()
		case opLBrace:
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
	m := p.sc.nodes.mark()
	for !p.at(opRBracket) {
		if p.eat(opComma) {
			continue // elision
		}
		e, err := p.assignExpr(false)
		if err != nil {
			return nil, err
		}
		p.sc.nodes.push(e)
		if !p.at(opRBracket) {
			if err := p.expect(opComma); err != nil {
				return nil, err
			}
		}
	}
	p.sc.nodes.finish(m, &arr.Elems)
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
	m := p.sc.props.mark()
	for !p.at(opRBrace) {
		t := p.cur()
		var key string
		switch t.Kind {
		case TokIdent, TokKeyword, TokString, TokNumber:
			key = t.Text
			p.i++
		default:
			return nil, p.errorf("expected property key, found %s", t)
		}
		if err := p.expect(opColon); err != nil {
			return nil, err
		}
		val, err := p.assignExpr(false)
		if err != nil {
			return nil, err
		}
		p.sc.props.push(&Property{Key: key, Value: val})
		if !p.eat(opComma) {
			break
		}
	}
	if err := p.expect(opRBrace); err != nil {
		return nil, err
	}
	p.sc.props.finish(m, &obj.Props)
	p.up(outer)
	return obj, nil
}
