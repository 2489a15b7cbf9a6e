package classad

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type caToken struct {
	kind caTokKind
	text string
	num  float64
}

type caTokKind int

const (
	caEOF caTokKind = iota
	caIdent
	caNumber
	caString
	caOp
)

func caLex(src string) ([]caToken, error) {
	var toks []caToken
	pos := 0
	for pos < len(src) {
		c := rune(src[pos])
		switch {
		case unicode.IsSpace(c):
			pos++
		case asciiIdentStart(src[pos]):
			start := pos
			for pos < len(src) && asciiIdentPart(src[pos]) {
				pos++
			}
			toks = append(toks, caToken{kind: caIdent, text: src[start:pos]})
		case c >= '0' && c <= '9':
			start := pos
			for pos < len(src) && (src[pos] >= '0' && src[pos] <= '9' || src[pos] == '.') {
				pos++
			}
			// Scientific notation: 1e9, 2.5E-3, 1e+19 (Value.String renders
			// large numbers this way, so the lexer must read it back).
			if pos < len(src) && (src[pos] == 'e' || src[pos] == 'E') {
				mark := pos
				pos++
				if pos < len(src) && (src[pos] == '+' || src[pos] == '-') {
					pos++
				}
				if pos < len(src) && src[pos] >= '0' && src[pos] <= '9' {
					for pos < len(src) && src[pos] >= '0' && src[pos] <= '9' {
						pos++
					}
				} else {
					pos = mark // bare 'e': an identifier follows, not an exponent
				}
			}
			num, err := strconv.ParseFloat(src[start:pos], 64)
			if err != nil {
				return nil, fmt.Errorf("classad: bad number %q", src[start:pos])
			}
			toks = append(toks, caToken{kind: caNumber, text: src[start:pos], num: num})
		case c == '"':
			pos++
			var b strings.Builder
			for pos < len(src) && src[pos] != '"' {
				if src[pos] == '\\' && pos+1 < len(src) {
					pos++
				}
				b.WriteByte(src[pos])
				pos++
			}
			if pos >= len(src) {
				return nil, fmt.Errorf("classad: unterminated string")
			}
			pos++
			toks = append(toks, caToken{kind: caString, text: b.String()})
		default:
			for _, op := range []string{"==", "!=", "<=", ">=", "&&", "||"} {
				if strings.HasPrefix(src[pos:], op) {
					toks = append(toks, caToken{kind: caOp, text: op})
					pos += len(op)
					goto next
				}
			}
			switch c {
			case '<', '>', '+', '-', '*', '/', '%', '(', ')', '.', '!':
				toks = append(toks, caToken{kind: caOp, text: string(c)})
				pos++
			default:
				return nil, fmt.Errorf("classad: unexpected character %q", string(c))
			}
		next:
		}
	}
	return append(toks, caToken{kind: caEOF}), nil
}

// Identifiers are ASCII-only (ClassAd attribute names are): byte-wise
// lexing of multi-byte UTF-8 letters would disagree with the UTF-8-aware
// case folding used for attribute lookup.
func asciiIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func asciiIdentPart(c byte) bool {
	return asciiIdentStart(c) || c >= '0' && c <= '9'
}

type caParser struct {
	toks []caToken
	pos  int
}

func (p *caParser) peek() caToken { return p.toks[p.pos] }

func (p *caParser) next() caToken {
	t := p.toks[p.pos]
	if t.kind != caEOF {
		p.pos++
	}
	return t
}

func (p *caParser) accept(op string) bool {
	if p.peek().kind == caOp && p.peek().text == op {
		p.pos++
		return true
	}
	return false
}

// ParseExpr parses a single ClassAd expression.
func ParseExpr(src string) (Expr, error) {
	toks, err := caLex(src)
	if err != nil {
		return nil, err
	}
	p := &caParser{toks: toks}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != caEOF {
		return nil, fmt.Errorf("classad: trailing input at %q", p.peek().text)
	}
	return e, nil
}

// MustParseExpr panics on parse errors; for statically known expressions.
func MustParseExpr(src string) Expr {
	e, err := ParseExpr(src)
	if err != nil {
		panic(err)
	}
	return e
}

func (p *caParser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("||") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = binaryNode{op: "||", left: left, right: right}
	}
	return left, nil
}

func (p *caParser) parseAnd() (Expr, error) {
	left, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.accept("&&") {
		right, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		left = binaryNode{op: "&&", left: left, right: right}
	}
	return left, nil
}

func (p *caParser) parseCmp() (Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"==", "!=", "<=", ">=", "<", ">"} {
		if p.accept(op) {
			right, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return binaryNode{op: op, left: left, right: right}, nil
		}
	}
	return left, nil
}

func (p *caParser) parseAdd() (Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept("+"):
			op = "+"
		case p.accept("-"):
			op = "-"
		default:
			return left, nil
		}
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = binaryNode{op: op, left: left, right: right}
	}
}

func (p *caParser) parseMul() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept("*"):
			op = "*"
		case p.accept("/"):
			op = "/"
		case p.accept("%"):
			op = "%"
		default:
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = binaryNode{op: op, left: left, right: right}
	}
}

func (p *caParser) parseUnary() (Expr, error) {
	if p.accept("!") {
		sub, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unaryNode{op: "!", sub: sub}, nil
	}
	if p.accept("-") {
		sub, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unaryNode{op: "-", sub: sub}, nil
	}
	return p.parsePrimary()
}

func (p *caParser) parsePrimary() (Expr, error) {
	tok := p.peek()
	switch tok.kind {
	case caNumber:
		p.next()
		return litNode{v: Num(tok.num)}, nil
	case caString:
		p.next()
		return litNode{v: Str(tok.text)}, nil
	case caIdent:
		name := strings.ToLower(tok.text)
		switch name {
		case "true":
			p.next()
			return litNode{v: True}, nil
		case "false":
			p.next()
			return litNode{v: False}, nil
		case "undefined":
			p.next()
			return litNode{v: Undefined}, nil
		case "error":
			p.next()
			return litNode{v: ErrorVal}, nil
		}
		p.next()
		// Scoped reference my.X / target.X?
		if (name == "my" || name == "target") && p.accept(".") {
			attr := p.next()
			if attr.kind != caIdent {
				return nil, fmt.Errorf("classad: expected attribute after %s.", name)
			}
			return attrNode{scope: name, name: strings.ToLower(attr.text)}, nil
		}
		return attrNode{name: name}, nil
	case caOp:
		if tok.text == "(" {
			p.next()
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if !p.accept(")") {
				return nil, fmt.Errorf("classad: expected ')'")
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("classad: unexpected token %q", tok.text)
}
