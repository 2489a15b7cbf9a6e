package cep

import "fmt"

// Expr is a compiled expression node. A where clause evaluates against the
// event being inserted. Select and having expressions are bound by the
// planner first: their field references and aggregate calls read the
// running state of the group under evaluation and ignore the event.
type Expr interface {
	eval(ev *Event) (Val, error)
	// hasAggregate reports whether the subtree contains an aggregate call.
	hasAggregate() bool
	// text returns the canonical source form (used as a default alias).
	text() string
}

type litExpr struct {
	val Val
	src string
}

func (l *litExpr) eval(*Event) (Val, error) { return l.val, nil }
func (l *litExpr) hasAggregate() bool       { return false }
func (l *litExpr) text() string             { return l.src }

type fieldExpr struct{ name string }

func (f *fieldExpr) eval(ev *Event) (Val, error) { return ev.fieldVal(f.name), nil }
func (f *fieldExpr) hasAggregate() bool          { return false }
func (f *fieldExpr) text() string                { return f.name }

type unaryExpr struct {
	op  string // "not" or "-"
	sub Expr
}

func (u *unaryExpr) eval(ev *Event) (Val, error) {
	v, err := u.sub.eval(ev)
	if err != nil {
		return Val{}, err
	}
	if u.op == "not" {
		if v.k != kindBool {
			return Val{}, fmt.Errorf("cep: not applied to non-boolean %s", v.k)
		}
		return BoolVal(!v.Bool()), nil
	}
	f, ok := v.numeric()
	if !ok {
		return Val{}, fmt.Errorf("cep: unary minus on non-number %s", v.k)
	}
	return NumVal(-f), nil
}
func (u *unaryExpr) hasAggregate() bool { return u.sub.hasAggregate() }
func (u *unaryExpr) text() string       { return u.op + " " + u.sub.text() }

type binaryExpr struct {
	op          string
	left, right Expr
}

func (b *binaryExpr) eval(ev *Event) (Val, error) {
	l, err := b.left.eval(ev)
	if err != nil {
		return Val{}, err
	}
	if b.op == "and" || b.op == "or" {
		// Short-circuit: the right side's errors are not surfaced when the
		// left side decides.
		if l.k != kindBool {
			return Val{}, fmt.Errorf("cep: '%s' on non-boolean %s", b.op, l.k)
		}
		if l.Bool() == (b.op == "or") {
			return l, nil
		}
		r, err := b.right.eval(ev)
		if err != nil {
			return Val{}, err
		}
		if r.k != kindBool {
			return Val{}, fmt.Errorf("cep: '%s' on non-boolean %s", b.op, r.k)
		}
		return r, nil
	}
	r, err := b.right.eval(ev)
	if err != nil {
		return Val{}, err
	}
	switch b.op {
	case "=":
		return BoolVal(valLooseEqual(l, r)), nil
	case "!=":
		return BoolVal(!valLooseEqual(l, r)), nil
	case "<", "<=", ">", ">=":
		ok, err := valCompare(b.op, l, r)
		return BoolVal(ok), err
	}
	lf, ok1 := l.numeric()
	rf, ok2 := r.numeric()
	if !ok1 || !ok2 {
		return Val{}, fmt.Errorf("cep: arithmetic on non-numbers %s %s %s", l.k, b.op, r.k)
	}
	switch b.op {
	case "+":
		return NumVal(lf + rf), nil
	case "-":
		return NumVal(lf - rf), nil
	case "*":
		return NumVal(lf * rf), nil
	case "/":
		if rf == 0 {
			return Val{}, fmt.Errorf("cep: division by zero")
		}
		return NumVal(lf / rf), nil
	}
	return Val{}, fmt.Errorf("cep: unknown operator %q", b.op)
}

func (b *binaryExpr) hasAggregate() bool {
	return b.left.hasAggregate() || b.right.hasAggregate()
}
func (b *binaryExpr) text() string {
	return fmt.Sprintf("(%s %s %s)", b.left.text(), b.op, b.right.text())
}

// aggExpr is an aggregate call: count(*), count(f), sum(f), avg(f), min(f),
// max(f), first(f), last(f). The parser builds it unbound; the planner
// binds a copy to its statement's running state (s, idx).
type aggExpr struct {
	fn   string
	arg  Expr // nil for count(*)
	star bool

	s   *Statement
	idx int // into s.aggs
}

func (a *aggExpr) eval(*Event) (Val, error) {
	if a.s == nil {
		return Val{}, fmt.Errorf("cep: aggregate %s outside grouped evaluation", a.text())
	}
	return a.s.aggValue(a.s.cur, a.idx)
}
func (a *aggExpr) hasAggregate() bool { return true }
func (a *aggExpr) text() string {
	if a.star {
		return a.fn + "(*)"
	}
	return a.fn + "(" + a.arg.text() + ")"
}

// groupField is a field reference bound by the planner: it reads the
// group's representative (its latest event's captured fields).
type groupField struct {
	s    *Statement
	idx  int // into s.evFields
	name string
}

func (f *groupField) eval(*Event) (Val, error) { return f.s.cur.repVals[f.idx], nil }
func (f *groupField) hasAggregate() bool       { return false }
func (f *groupField) text() string             { return f.name }
