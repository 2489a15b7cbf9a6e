package cep

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// --- lexer ---

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokOp // operators and punctuation
)

type token struct {
	kind tokKind
	text string
	num  float64
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF})
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case isIdentStart(rune(c)):
			start := l.pos
			for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
				l.pos++
			}
			l.toks = append(l.toks, token{kind: tokIdent, text: l.src[start:l.pos]})
		case c >= '0' && c <= '9':
			start := l.pos
			for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.') {
				l.pos++
			}
			// Scientific notation: 1e9, 2.5E-3.
			if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
				mark := l.pos
				l.pos++
				if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
					l.pos++
				}
				if l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
					for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
						l.pos++
					}
				} else {
					l.pos = mark // bare 'e': a unit or identifier follows
				}
			}
			num, err := strconv.ParseFloat(l.src[start:l.pos], 64)
			if err != nil {
				return nil, fmt.Errorf("cep: bad number %q", l.src[start:l.pos])
			}
			l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], num: num})
		case c == '\'':
			l.pos++
			start := l.pos
			for l.pos < len(l.src) && l.src[l.pos] != '\'' {
				l.pos++
			}
			if l.pos >= len(l.src) {
				return nil, fmt.Errorf("cep: unterminated string literal")
			}
			l.toks = append(l.toks, token{kind: tokString, text: l.src[start:l.pos]})
			l.pos++
		default:
			two := ""
			if l.pos+1 < len(l.src) {
				two = l.src[l.pos : l.pos+2]
			}
			switch two {
			case "!=", "<=", ">=":
				l.toks = append(l.toks, token{kind: tokOp, text: two})
				l.pos += 2
				continue
			}
			switch c {
			case '=', '<', '>', '+', '-', '*', '/', '(', ')', ',', '.', ':':
				l.toks = append(l.toks, token{kind: tokOp, text: string(c)})
				l.pos++
			default:
				return nil, fmt.Errorf("cep: unexpected character %q", string(c))
			}
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
}

// Identifiers are ASCII-only: the lexer walks bytes, so multi-byte UTF-8
// letters would be mis-tokenized.
func isIdentStart(r rune) bool {
	return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_'
}

func isIdentPart(r rune) bool {
	return isIdentStart(r) || r >= '0' && r <= '9'
}

// --- parser ---

// WindowKind selects the statement's retention policy.
type WindowKind int

const (
	// WindowKeepAll retains every inserted event.
	WindowKeepAll WindowKind = iota
	// WindowTime retains events newer than now minus the duration.
	WindowTime
	// WindowLength retains the last N events.
	WindowLength
)

// WindowSpec describes a statement's window.
type WindowSpec struct {
	Kind WindowKind
	Dur  time.Duration // for WindowTime
	N    int           // for WindowLength
}

// SelectItem is one column of the select list.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// Query is a parsed EPL statement. Output rows come in the order their
// groups' oldest surviving events arrived; there is no order by (callers
// sort in Go), only limit.
type Query struct {
	Select  []SelectItem
	From    string // event type
	Window  WindowSpec
	Where   Expr // nil when absent; must not contain aggregates
	GroupBy []Expr
	Having  Expr // nil when absent
	Limit   int  // 0 = unlimited
	src     string
}

// Source returns the original EPL text.
func (q *Query) Source() string { return q.src }

type parser struct {
	toks []token
	pos  int
}

// ParseQuery parses an EPL statement.
func ParseQuery(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q := &Query{src: src}
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		item := SelectItem{Expr: e, Alias: e.text()}
		if p.acceptKeyword("as") {
			alias, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			item.Alias = alias
		}
		q.Select = append(q.Select, item)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	from, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	q.From = from
	q.Window = WindowSpec{Kind: WindowKeepAll}
	if p.accept(".") {
		if err := p.expectKeyword("win"); err != nil {
			return nil, err
		}
		if !p.accept(":") {
			return nil, fmt.Errorf("cep: expected ':' after win")
		}
		kind, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		switch kind {
		case "time":
			if !p.accept("(") {
				return nil, fmt.Errorf("cep: expected '(' after win:time")
			}
			d, err := p.parseDuration()
			if err != nil {
				return nil, err
			}
			if !p.accept(")") {
				return nil, fmt.Errorf("cep: expected ')' after window duration")
			}
			q.Window = WindowSpec{Kind: WindowTime, Dur: d}
		case "length":
			if !p.accept("(") {
				return nil, fmt.Errorf("cep: expected '(' after win:length")
			}
			tok := p.next()
			if tok.kind != tokNumber || tok.num != float64(int(tok.num)) || tok.num <= 0 {
				return nil, fmt.Errorf("cep: win:length needs a positive integer")
			}
			if !p.accept(")") {
				return nil, fmt.Errorf("cep: expected ')' after window length")
			}
			q.Window = WindowSpec{Kind: WindowLength, N: int(tok.num)}
		case "keepall":
			q.Window = WindowSpec{Kind: WindowKeepAll}
		default:
			return nil, fmt.Errorf("cep: unknown window %q", kind)
		}
	}
	if p.acceptKeyword("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if e.hasAggregate() {
			return nil, fmt.Errorf("cep: where clause cannot contain aggregates (use having)")
		}
		q.Where = e
	}
	if p.acceptKeyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if e.hasAggregate() {
				return nil, fmt.Errorf("cep: group by cannot contain aggregates")
			}
			q.GroupBy = append(q.GroupBy, e)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.acceptKeyword("having") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.Having = e
	}
	if p.acceptKeyword("limit") {
		tok := p.next()
		if tok.kind != tokNumber || tok.num != float64(int(tok.num)) || tok.num <= 0 {
			return nil, fmt.Errorf("cep: limit needs a positive integer")
		}
		q.Limit = int(tok.num)
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("cep: trailing input at %q", p.peek().text)
	}
	return q, nil
}

// parseDuration accepts forms like 60s, 500 ms, 5 min, 2h, or a bare number
// of seconds.
func (p *parser) parseDuration() (time.Duration, error) {
	tok := p.next()
	if tok.kind != tokNumber {
		return 0, fmt.Errorf("cep: expected duration, got %q", tok.text)
	}
	unit := time.Second
	if p.peek().kind == tokIdent {
		u := strings.ToLower(p.next().text)
		switch u {
		case "ms", "msec":
			unit = time.Millisecond
		case "s", "sec", "seconds":
			unit = time.Second
		case "min", "minutes":
			unit = time.Minute
		case "h", "hours":
			unit = time.Hour
		default:
			return 0, fmt.Errorf("cep: unknown time unit %q", u)
		}
	}
	return time.Duration(tok.num * float64(unit)), nil
}

// Expression grammar (precedence climbing):
//
//	or-expr   := and-expr (OR and-expr)*
//	and-expr  := not-expr (AND not-expr)*
//	not-expr  := NOT not-expr | cmp-expr
//	cmp-expr  := add-expr ((=|!=|<|<=|>|>=) add-expr)?
//	add-expr  := mul-expr ((+|-) mul-expr)*
//	mul-expr  := unary ((*|/) unary)*
//	unary     := - unary | primary
//	primary   := literal | aggregate | ident | ( or-expr )
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("or") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{op: "or", left: left, right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("and") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{op: "and", left: left, right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("not") {
		sub, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{op: "not", sub: sub}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", "!=", "<=", ">=", "<", ">"} {
		if p.accept(op) {
			right, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &binaryExpr{op: op, left: left, right: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseAdd() (Expr, error) {
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
		left = &binaryExpr{op: op, left: left, right: right}
	}
}

func (p *parser) parseMul() (Expr, error) {
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
		default:
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{op: op, left: left, right: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept("-") {
		sub, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{op: "-", sub: sub}, nil
	}
	return p.parsePrimary()
}

var aggFuncs = map[string]bool{
	"count": true, "sum": true, "avg": true,
	"min": true, "max": true, "first": true, "last": true,
}

func (p *parser) parsePrimary() (Expr, error) {
	tok := p.peek()
	switch tok.kind {
	case tokNumber:
		p.next()
		return &litExpr{val: NumVal(tok.num), src: tok.text}, nil
	case tokString:
		p.next()
		return &litExpr{val: StrVal(tok.text), src: "'" + tok.text + "'"}, nil
	case tokIdent:
		name := strings.ToLower(tok.text)
		if name == "true" || name == "false" {
			p.next()
			return &litExpr{val: BoolVal(name == "true"), src: name}, nil
		}
		if aggFuncs[name] && p.peekAt(1).text == "(" {
			p.next() // fn
			p.next() // (
			if name == "count" && p.accept("*") {
				if !p.accept(")") {
					return nil, fmt.Errorf("cep: expected ')' after count(*")
				}
				return &aggExpr{fn: "count", star: true}, nil
			}
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if arg.hasAggregate() {
				return nil, fmt.Errorf("cep: nested aggregates are not supported")
			}
			if !p.accept(")") {
				return nil, fmt.Errorf("cep: expected ')' after %s(...", name)
			}
			return &aggExpr{fn: name, arg: arg}, nil
		}
		p.next()
		return &fieldExpr{name: tok.text}, nil
	case tokOp:
		if tok.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if !p.accept(")") {
				return nil, fmt.Errorf("cep: expected ')'")
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("cep: unexpected token %q", tok.text)
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) peekAt(n int) token {
	if p.pos+n >= len(p.toks) {
		return token{kind: tokEOF}
	}
	return p.toks[p.pos+n]
}

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) accept(op string) bool {
	if p.peek().kind == tokOp && p.peek().text == op {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().kind == tokIdent && strings.EqualFold(p.peek().text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("cep: expected %q, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if p.peek().kind != tokIdent {
		return "", fmt.Errorf("cep: expected identifier, got %q", p.peek().text)
	}
	return p.next().text, nil
}
