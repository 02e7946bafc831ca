package jsast

import (
	"fmt"
	"strconv"
	"strings"
)

// Print renders an AST back to JavaScript source. The output is normalized
// (canonical spacing, explicit semicolons, fully parenthesized nesting
// where precedence requires it) and re-parses to an equivalent tree. Only
// tests print: the round-trip and fuzz tests here and, exported to package
// jsast_test, the oracle tests.
func Print(n Node) string {
	var p printer
	p.node(n, 0)
	return p.b.String()
}

type printer struct {
	b strings.Builder
	// noIn is set while the head of a for statement is printed, where a
	// bare `in` would be read back as the for-in keyword (and stays set,
	// harmlessly, through a function body nested in that head).
	noIn bool
}

func (p *printer) ws(indent int) {
	for i := 0; i < indent; i++ {
		p.b.WriteString("  ")
	}
}

// node prints a statement-position node.
func (p *printer) node(n Node, indent int) {
	switch v := n.(type) {
	case *Program:
		for _, s := range v.Body {
			p.node(s, indent)
		}
	case *FunctionDecl:
		p.ws(indent)
		fmt.Fprintf(&p.b, "function %s(%s) ", v.Name, strings.Join(v.Params, ", "))
		p.block(v.Body, indent)
		p.b.WriteByte('\n')
	case *VarDecl:
		p.ws(indent)
		p.varDecl(v)
		p.b.WriteString(";\n")
	case *Block:
		p.ws(indent)
		p.block(v, indent)
		p.b.WriteByte('\n')
	case *ExprStmt:
		p.ws(indent)
		// A statement that opened with { or function would be read back
		// as a block or a declaration.
		first := v.X
		if seq, ok := first.(*Sequence); ok && len(seq.Exprs) > 0 {
			first = seq.Exprs[0]
		}
		switch first.(type) {
		case *ObjectLit, *FunctionExpr:
			p.expr(v.X, precPrimary+1)
		default:
			p.expr(v.X, precLowest)
		}
		p.b.WriteString(";\n")
	case *If:
		p.ws(indent)
		p.b.WriteString("if (")
		p.expr(v.Cond, precLowest)
		p.b.WriteString(") ")
		p.nested(v.Then, indent)
		if v.Else != nil {
			p.ws(indent)
			p.b.WriteString("else ")
			p.nested(v.Else, indent)
		}
	case *For:
		p.ws(indent)
		p.b.WriteString("for (")
		noIn := p.noIn
		p.noIn = true
		if d, ok := v.Init.(*VarDecl); ok {
			p.varDecl(d)
		} else if v.Init != nil {
			p.expr(v.Init, precLowest)
		}
		p.noIn = noIn
		p.b.WriteString("; ")
		if v.Cond != nil {
			p.expr(v.Cond, precLowest)
		}
		p.b.WriteString("; ")
		if v.Post != nil {
			p.expr(v.Post, precLowest)
		}
		p.b.WriteString(") ")
		p.nested(v.Body, indent)
	case *ForIn:
		p.ws(indent)
		p.b.WriteString("for (")
		noIn := p.noIn
		p.noIn = true
		if d, ok := v.Left.(*VarDecl); ok {
			p.varDecl(d)
		} else {
			p.expr(v.Left, precLowest)
		}
		p.noIn = noIn
		p.b.WriteString(" in ")
		p.expr(v.Right, precLowest)
		p.b.WriteString(") ")
		p.nested(v.Body, indent)
	case *While:
		p.ws(indent)
		p.b.WriteString("while (")
		p.expr(v.Cond, precLowest)
		p.b.WriteString(") ")
		p.nested(v.Body, indent)
	case *DoWhile:
		p.ws(indent)
		p.b.WriteString("do ")
		p.nested(v.Body, indent)
		p.ws(indent)
		p.b.WriteString("while (")
		p.expr(v.Cond, precLowest)
		p.b.WriteString(");\n")
	case *Return:
		p.ws(indent)
		p.b.WriteString("return")
		if v.Arg != nil {
			p.b.WriteByte(' ')
			p.expr(v.Arg, precLowest)
		}
		p.b.WriteString(";\n")
	case *Try:
		p.ws(indent)
		p.b.WriteString("try ")
		p.block(v.Body, indent)
		if v.Catch != nil {
			fmt.Fprintf(&p.b, " catch (%s) ", v.Catch.Param)
			p.block(v.Catch.Body, indent)
		}
		if v.Finally != nil {
			p.b.WriteString(" finally ")
			p.block(v.Finally, indent)
		}
		p.b.WriteByte('\n')
	case *Throw:
		p.ws(indent)
		p.b.WriteString("throw ")
		p.expr(v.Arg, precLowest)
		p.b.WriteString(";\n")
	case *Switch:
		p.ws(indent)
		p.b.WriteString("switch (")
		p.expr(v.Disc, precLowest)
		p.b.WriteString(") {\n")
		for _, c := range v.Cases {
			p.ws(indent + 1)
			if c.Test != nil {
				p.b.WriteString("case ")
				p.expr(c.Test, precLowest)
				p.b.WriteString(":\n")
			} else {
				p.b.WriteString("default:\n")
			}
			for _, s := range c.Body {
				p.node(s, indent+2)
			}
		}
		p.ws(indent)
		p.b.WriteString("}\n")
	case *Break:
		p.ws(indent)
		p.b.WriteString("break")
		if v.Label != "" {
			p.b.WriteByte(' ')
			p.b.WriteString(v.Label)
		}
		p.b.WriteString(";\n")
	case *Continue:
		p.ws(indent)
		p.b.WriteString("continue")
		if v.Label != "" {
			p.b.WriteByte(' ')
			p.b.WriteString(v.Label)
		}
		p.b.WriteString(";\n")
	case *Labeled:
		p.ws(indent)
		p.b.WriteString(v.Label)
		p.b.WriteString(": ")
		p.nested(v.Body, indent)
	case *With:
		p.ws(indent)
		p.b.WriteString("with (")
		p.expr(v.Obj, precLowest)
		p.b.WriteString(") ")
		p.nested(v.Body, indent)
	case *Empty:
		p.ws(indent)
		p.b.WriteString(";\n")
	case *Debugger:
		p.ws(indent)
		p.b.WriteString("debugger;\n")
	default:
		// Expression in statement position (defensive).
		p.ws(indent)
		p.expr(n, precLowest)
		p.b.WriteString(";\n")
	}
}

// nested prints the body of a control statement: blocks inline, other
// statements on their own line.
func (p *printer) nested(n Node, indent int) {
	if b, ok := n.(*Block); ok {
		p.block(b, indent)
		p.b.WriteByte('\n')
		return
	}
	p.b.WriteByte('\n')
	p.node(n, indent+1)
}

func (p *printer) block(b *Block, indent int) {
	p.b.WriteString("{\n")
	for _, s := range b.Body {
		p.node(s, indent+1)
	}
	p.ws(indent)
	p.b.WriteByte('}')
}

func (p *printer) varDecl(v *VarDecl) {
	p.b.WriteString("var ")
	for i, d := range v.Decls {
		if i > 0 {
			p.b.WriteString(", ")
		}
		p.b.WriteString(d.Name)
		if d.Init != nil {
			p.b.WriteString(" = ")
			p.expr(d.Init, precAssign)
		}
	}
}

// Expression precedence levels for parenthesization.
const (
	precLowest      = 0 // sequence
	precAssign      = 1
	precConditional = 2
	precLogicalOr   = 3
	precLogicalAnd  = 4
	precBitOr       = 5
	precBitXor      = 6
	precBitAnd      = 7
	precEquality    = 8
	precRelational  = 9
	precShift       = 10
	precAdditive    = 11
	precMultiplicat = 12
	precUnary       = 13
	precPostfix     = 14
	precCall        = 15
	precPrimary     = 16
)

func binaryOpPrec(op string) int {
	switch op {
	case "||":
		return precLogicalOr
	case "&&":
		return precLogicalAnd
	case "|":
		return precBitOr
	case "^":
		return precBitXor
	case "&":
		return precBitAnd
	case "==", "!=", "===", "!==":
		return precEquality
	case "<", ">", "<=", ">=", "in", "instanceof":
		return precRelational
	case "<<", ">>", ">>>":
		return precShift
	case "+", "-":
		return precAdditive
	case "*", "/", "%":
		return precMultiplicat
	default:
		return precPrimary
	}
}

// expr prints an expression, parenthesizing when its precedence falls
// below the context's minimum.
func (p *printer) expr(n Node, min int) {
	prec := exprPrec(n)
	if b, ok := n.(*Binary); ok && p.noIn && b.Op == "in" {
		prec = min - 1
	}
	if prec < min {
		noIn := p.noIn
		p.noIn = false
		p.b.WriteByte('(')
		p.exprInner(n)
		p.b.WriteByte(')')
		p.noIn = noIn
		return
	}
	p.exprInner(n)
}

func exprPrec(n Node) int {
	switch v := n.(type) {
	case *Sequence:
		return precLowest
	case *Assign:
		return precAssign
	case *Conditional:
		return precConditional
	case *Logical, *Binary:
		op := ""
		if l, ok := v.(*Logical); ok {
			op = l.Op
		} else {
			op = v.(*Binary).Op
		}
		return binaryOpPrec(op)
	case *Unary:
		return precUnary
	case *Update:
		if v.Prefix {
			return precUnary
		}
		return precPostfix
	case *Call, *New, *Member:
		return precCall
	case *FunctionExpr, *ObjectLit:
		// Function and object literals need parens in some statement
		// positions; treat them as low-precedence to be safe.
		return precAssign
	default:
		return precPrimary
	}
}

func (p *printer) exprInner(n Node) {
	switch v := n.(type) {
	case *Ident:
		p.b.WriteString(v.Name)
	case *Literal:
		p.literal(v)
	case *This:
		p.b.WriteString("this")
	case *ArrayLit:
		p.b.WriteByte('[')
		for i, e := range v.Elems {
			if i > 0 {
				p.b.WriteString(", ")
			}
			p.expr(e, precAssign)
		}
		p.b.WriteByte(']')
	case *ObjectLit:
		p.b.WriteByte('{')
		for i, prop := range v.Props {
			if i > 0 {
				p.b.WriteString(", ")
			}
			if isValidIdent(prop.Key) {
				p.b.WriteString(prop.Key)
			} else {
				p.b.WriteString(strconv.Quote(prop.Key))
			}
			p.b.WriteString(": ")
			p.expr(prop.Value, precAssign)
		}
		p.b.WriteByte('}')
	case *FunctionExpr:
		p.b.WriteString("function")
		if v.Name != "" {
			p.b.WriteByte(' ')
			p.b.WriteString(v.Name)
		}
		fmt.Fprintf(&p.b, "(%s) ", strings.Join(v.Params, ", "))
		p.block(v.Body, 0)
	case *Unary:
		p.b.WriteString(v.Op)
		if len(v.Op) > 1 { // typeof, void, delete
			p.b.WriteByte(' ')
		} else if needsUnarySpace(v.Op, v.X) {
			// Avoid fusing -(-a) into --a (and +(+a) into ++a).
			p.b.WriteByte(' ')
		}
		p.expr(v.X, precUnary)
	case *Update:
		if v.Prefix {
			p.b.WriteString(v.Op)
			p.expr(v.X, precUnary)
		} else {
			p.expr(v.X, precPostfix)
			p.b.WriteString(v.Op)
		}
	case *Binary:
		prec := binaryOpPrec(v.Op)
		p.expr(v.L, prec)
		fmt.Fprintf(&p.b, " %s ", v.Op)
		p.expr(v.R, prec+1)
	case *Logical:
		prec := binaryOpPrec(v.Op)
		p.expr(v.L, prec)
		fmt.Fprintf(&p.b, " %s ", v.Op)
		p.expr(v.R, prec+1)
	case *Assign:
		p.expr(v.L, precCall)
		fmt.Fprintf(&p.b, " %s ", v.Op)
		p.expr(v.R, precAssign)
	case *Conditional:
		p.expr(v.Cond, precLogicalOr)
		p.b.WriteString(" ? ")
		p.expr(v.Then, precAssign)
		p.b.WriteString(" : ")
		p.expr(v.Else, precAssign)
	case *Call:
		p.expr(v.Callee, precCall)
		p.args(v.Args)
	case *New:
		p.b.WriteString("new ")
		p.expr(v.Callee, precCall)
		p.args(v.Args)
	case *Member:
		if lit, ok := v.Obj.(*Literal); ok && lit.Kind == LitNumber && !v.Computed {
			// 1.a would be read back as the number 1. and a stray a.
			p.expr(v.Obj, precPrimary+1)
		} else {
			p.expr(v.Obj, precCall)
		}
		if v.Computed {
			p.b.WriteByte('[')
			p.expr(v.Prop, precLowest)
			p.b.WriteByte(']')
		} else {
			p.b.WriteByte('.')
			p.b.WriteString(v.Prop.(*Ident).Name)
		}
	case *Sequence:
		for i, e := range v.Exprs {
			if i > 0 {
				p.b.WriteString(", ")
			}
			p.expr(e, precAssign)
		}
	default:
		fmt.Fprintf(&p.b, "/* %T */", n)
	}
}

// needsUnarySpace reports whether a sign operator would fuse with its
// operand's leading token into ++ or --.
func needsUnarySpace(op string, x Node) bool {
	if op != "-" && op != "+" {
		return false
	}
	switch v := x.(type) {
	case *Unary:
		return v.Op == op
	case *Update:
		return v.Prefix && strings.HasPrefix(v.Op, op)
	default:
		return false
	}
}

func (p *printer) args(args []Node) {
	p.b.WriteByte('(')
	for i, a := range args {
		if i > 0 {
			p.b.WriteString(", ")
		}
		p.expr(a, precAssign)
	}
	p.b.WriteByte(')')
}

func (p *printer) literal(v *Literal) {
	switch v.Kind {
	case LitString:
		p.b.WriteString(quoteJSString(v.Value))
	case LitNumber, LitRegex:
		p.b.WriteString(v.Value)
	case LitBool, LitNull, LitUndefined:
		p.b.WriteString(v.Value)
	}
}

// quoteJSString renders a JS double-quoted string literal.
func quoteJSString(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			if r < 0x20 {
				fmt.Fprintf(&b, `\x%02x`, r)
			} else {
				b.WriteRune(r)
			}
		}
	}
	b.WriteByte('"')
	return b.String()
}

func isValidIdent(s string) bool {
	if s == "" || IsKeyword(s) {
		// Keywords are legal property keys in ES5 object literals, and
		// our parser accepts them, so print them bare too — except the
		// empty string.
		return s != ""
	}
	if !isIdentStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isIdentPart(s[i]) {
			return false
		}
	}
	return true
}
