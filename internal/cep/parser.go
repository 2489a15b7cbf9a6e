package cep

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// query is a parsed statement. The language is one shape:
//
//	select item [as alias], ... from Type.win:time(<number> <unit>)
//	[where field = literal] group by field, ...
//
// An item is a group-by field or count(*); there are one to
// maxGroupKeyFields keys; a literal is a quoted string or a number; the
// unit is ms, s, min or h. Aliases name the columns for the reader only:
// EachRow's columns come in select-list order.
type query struct {
	from     string
	window   time.Duration
	where    string // the filtered field; "" without a where clause
	whereVal Val
	keys     []string
	sel      []int // per select item: its index into keys, or -1 for count(*)
}

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // one character, or an unterminated string's rest
)

type token struct {
	kind tokKind
	text string
}

// parser scans one token ahead. Every error names the clause being parsed.
type parser struct {
	src    string
	pos    int
	tok    token
	clause string
}

// next scans the token at pos into tok. A character outside the language is
// a punctuation token no rule accepts, so it fails in the clause it is in.
func (p *parser) next() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
	start := p.pos
	switch {
	case p.pos == len(p.src):
		p.tok = token{tokEOF, "end of statement"}
		return
	case isLetter(p.src[p.pos]):
		for p.pos < len(p.src) && (isLetter(p.src[p.pos]) || isDigit(p.src[p.pos]) || p.src[p.pos] == '_') {
			p.pos++
		}
		p.tok = token{tokIdent, p.src[start:p.pos]}
	case isDigit(p.src[p.pos]):
		for p.pos < len(p.src) && (isDigit(p.src[p.pos]) || p.src[p.pos] == '.') {
			p.pos++
		}
		p.tok = token{tokNumber, p.src[start:p.pos]}
	case p.src[p.pos] == '\'':
		end := strings.IndexByte(p.src[start+1:], '\'')
		if end < 0 {
			p.pos = len(p.src)
			p.tok = token{tokPunct, p.src[start:]}
			return
		}
		p.pos += end + 2
		p.tok = token{tokString, p.src[start+1 : p.pos-1]}
	default:
		p.pos++
		p.tok = token{tokPunct, p.src[start:p.pos]}
	}
}

// Identifiers are ASCII: a letter, then letters, digits and underscores.
func isLetter(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
func isDigit(c byte) bool  { return c >= '0' && c <= '9' }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("cep: %s clause: "+format, append([]any{p.clause}, args...)...)
}

// unexpected reports the current token where want was required.
func (p *parser) unexpected(want string) error {
	return p.errf("expected %s, got %q", want, p.tok.text)
}

// keyword consumes the current token if it is the keyword kw, in any case.
func (p *parser) keyword(kw string) bool {
	if p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, kw) {
		p.next()
		return true
	}
	return false
}

// punct consumes the current token if it is the punctuation c.
func (p *parser) punct(c string) bool {
	if p.tok.kind == tokPunct && p.tok.text == c {
		p.next()
		return true
	}
	return false
}

// ident consumes an identifier; want names what it stands for in errors.
func (p *parser) ident(want string) (string, error) {
	if p.tok.kind != tokIdent {
		return "", p.unexpected(want)
	}
	name := p.tok.text
	p.next()
	return name, nil
}

func (p *parser) number() (float64, error) {
	f, err := strconv.ParseFloat(p.tok.text, 64)
	if p.tok.kind != tokNumber || err != nil {
		return 0, p.unexpected("a number")
	}
	p.next()
	return f, nil
}

var timeUnits = map[string]time.Duration{"ms": time.Millisecond, "s": time.Second, "min": time.Minute, "h": time.Hour}

// parseQuery parses a statement of the one shape query describes.
func parseQuery(src string) (*query, error) {
	p := &parser{src: src, clause: "select"}
	p.next()
	q := &query{}
	if !p.keyword("select") {
		return nil, p.unexpected(`"select"`)
	}
	var items []string // per select item: its field, "" for count(*)
	for {
		name, err := p.ident("a field or count(*)")
		if err != nil {
			return nil, err
		}
		if p.punct("(") {
			if !strings.EqualFold(name, "count") || !p.punct("*") || !p.punct(")") {
				return nil, p.errf("%s(...) is not supported, the one aggregate is count(*)", name)
			}
			name = ""
		}
		items = append(items, name)
		if p.keyword("as") {
			if _, err := p.ident("an alias"); err != nil {
				return nil, err
			}
		}
		if !p.punct(",") {
			break
		}
	}
	if !p.keyword("from") {
		return nil, p.unexpected(`"," or "from"`)
	}

	p.clause = "from"
	var err error
	if q.from, err = p.ident("an event type"); err != nil {
		return nil, err
	}
	if !p.punct(".") || !p.keyword("win") || !p.punct(":") {
		return nil, p.unexpected("a window .win:time(<number> <unit>)")
	}
	if !p.keyword("time") {
		return nil, p.errf("window win:%s is not supported, the one window is win:time", p.tok.text)
	}
	if !p.punct("(") {
		return nil, p.unexpected(`"("`)
	}
	n, err := p.number()
	if err != nil {
		return nil, err
	}
	unit, ok := timeUnits[strings.ToLower(p.tok.text)]
	if p.tok.kind != tokIdent || !ok {
		return nil, p.unexpected("a time unit (ms, s, min or h)")
	}
	p.next()
	q.window = time.Duration(n * float64(unit))
	if !p.punct(")") {
		return nil, p.unexpected(`")"`)
	}

	if p.keyword("where") {
		p.clause = "where"
		if q.where, err = p.ident("a field"); err != nil {
			return nil, err
		}
		if !p.punct("=") {
			return nil, p.unexpected(`"=", the one operator`)
		}
		switch p.tok.kind {
		case tokString:
			q.whereVal = StrVal(p.tok.text)
			p.next()
		case tokNumber:
			f, err := p.number()
			if err != nil {
				return nil, err
			}
			q.whereVal = NumVal(f)
		default:
			return nil, p.unexpected("a quoted string or a number")
		}
	}

	if !p.keyword("group") || !p.keyword("by") {
		return nil, p.unexpected(`"group by"`)
	}
	p.clause = "group by"
	for {
		key, err := p.ident("a field")
		if err != nil {
			return nil, err
		}
		q.keys = append(q.keys, key)
		if !p.punct(",") {
			break
		}
	}
	if len(q.keys) > maxGroupKeyFields {
		return nil, p.errf("%d keys, at most %d are supported", len(q.keys), maxGroupKeyFields)
	}
	switch p.tok.kind {
	case tokEOF:
	case tokIdent:
		p.clause = strings.ToLower(p.tok.text)
		return nil, p.errf("not supported, a statement ends with its group by keys")
	default:
		return nil, p.unexpected(`"," or the end of the statement`)
	}

	p.clause = "select"
	for _, name := range items {
		k := -1
		if name != "" {
			if k = slices.Index(q.keys, name); k < 0 {
				return nil, p.errf("%s is not a group by key", name)
			}
		}
		q.sel = append(q.sel, k)
	}
	return q, nil
}
