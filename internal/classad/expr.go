package classad

import "strings"

// Expr is a ClassAd expression evaluated against a (my, target) ad pair.
type Expr interface {
	Eval(ctx Context) Value
	String() string
}

// Context carries the evaluation scopes. Target may be nil (evaluating an
// ad on its own). Depth guards against reference cycles.
type Context struct {
	My     *ClassAd
	Target *ClassAd
	depth  int
}

const maxEvalDepth = 64

type litNode struct{ v Value }

func (n litNode) Eval(Context) Value { return n.v }
func (n litNode) String() string     { return n.v.String() }

// attrNode is an attribute reference: bare, my.X, or target.X.
type attrNode struct {
	scope string // "", "my", or "target"
	name  string // lowercase
}

func (n attrNode) Eval(ctx Context) Value {
	if ctx.depth >= maxEvalDepth {
		return ErrorVal
	}
	lookup := func(ad *ClassAd, other *ClassAd) (Value, bool) {
		if ad == nil {
			return Undefined, false
		}
		e, ok := ad.attrs[n.name]
		if !ok {
			return Undefined, false
		}
		return e.Eval(Context{My: ad, Target: other, depth: ctx.depth + 1}), true
	}
	switch n.scope {
	case "my":
		v, _ := lookup(ctx.My, ctx.Target)
		return v
	case "target":
		v, _ := lookup(ctx.Target, ctx.My)
		return v
	default:
		if v, ok := lookup(ctx.My, ctx.Target); ok {
			return v
		}
		if v, ok := lookup(ctx.Target, ctx.My); ok {
			return v
		}
		return Undefined
	}
}

func (n attrNode) String() string {
	if n.scope == "" {
		return n.name
	}
	return n.scope + "." + n.name
}

type unaryNode struct {
	op  string // "!" or "-"
	sub Expr
}

func (n unaryNode) Eval(ctx Context) Value {
	v := n.sub.Eval(ctx)
	switch v.Kind {
	case KindUndefined, KindError:
		return v
	}
	switch n.op {
	case "!":
		if v.Kind == KindBool {
			return Boolean(!v.Bool)
		}
		return ErrorVal
	case "-":
		if f, ok := v.Number(); ok {
			return Num(-f)
		}
		return ErrorVal
	}
	return ErrorVal
}

func (n unaryNode) String() string { return n.op + n.sub.String() }

type binaryNode struct {
	op          string
	left, right Expr
}

func (n binaryNode) Eval(ctx Context) Value {
	switch n.op {
	case "&&":
		l := n.left.Eval(ctx)
		if l.Kind == KindBool && !l.Bool {
			return False
		}
		r := n.right.Eval(ctx)
		if r.Kind == KindBool && !r.Bool {
			return False
		}
		return and3(l, r)
	case "||":
		l := n.left.Eval(ctx)
		if l.IsTrue() {
			return True
		}
		r := n.right.Eval(ctx)
		if r.IsTrue() {
			return True
		}
		return or3(l, r)
	}
	l := n.left.Eval(ctx)
	r := n.right.Eval(ctx)
	if l.Kind == KindError || r.Kind == KindError {
		return ErrorVal
	}
	if l.Kind == KindUndefined || r.Kind == KindUndefined {
		return Undefined
	}
	switch n.op {
	case "==", "!=", "<", "<=", ">", ">=":
		return comparison(n.op, l, r)
	case "+", "-", "*", "/", "%":
		lf, ok1 := l.Number()
		rf, ok2 := r.Number()
		if !ok1 || !ok2 {
			if n.op == "+" && l.Kind == KindString && r.Kind == KindString {
				return Str(l.Str + r.Str)
			}
			return ErrorVal
		}
		switch n.op {
		case "+":
			return Num(lf + rf)
		case "-":
			return Num(lf - rf)
		case "*":
			return Num(lf * rf)
		case "/":
			if rf == 0 {
				return ErrorVal
			}
			return Num(lf / rf)
		case "%":
			if rf == 0 {
				return ErrorVal
			}
			return Num(float64(int64(lf) % int64(rf)))
		}
	}
	return ErrorVal
}

func (n binaryNode) String() string {
	return "(" + n.left.String() + " " + n.op + " " + n.right.String() + ")"
}

// and3 implements three-valued AND for operands that are not definite
// false (handled by the caller's short-circuit).
func and3(l, r Value) Value {
	lb, lok := boolish(l)
	rb, rok := boolish(r)
	if lok && rok {
		return Boolean(lb && rb)
	}
	if l.Kind == KindError || r.Kind == KindError {
		return ErrorVal
	}
	return Undefined
}

func or3(l, r Value) Value {
	lb, lok := boolish(l)
	rb, rok := boolish(r)
	if lok && rok {
		return Boolean(lb || rb)
	}
	if l.Kind == KindError || r.Kind == KindError {
		return ErrorVal
	}
	return Undefined
}

func boolish(v Value) (bool, bool) {
	if v.Kind == KindBool {
		return v.Bool, true
	}
	return false, false
}

func comparison(op string, l, r Value) Value {
	var cmp float64
	if lf, ok := l.Number(); ok {
		rf, ok2 := r.Number()
		if !ok2 {
			return ErrorVal
		}
		cmp = lf - rf
	} else if l.Kind == KindString && r.Kind == KindString {
		// Condor string comparison is case-insensitive.
		cmp = float64(strings.Compare(strings.ToLower(l.Str), strings.ToLower(r.Str)))
	} else {
		return ErrorVal
	}
	switch op {
	case "==":
		return Boolean(cmp == 0)
	case "!=":
		return Boolean(cmp != 0)
	case "<":
		return Boolean(cmp < 0)
	case "<=":
		return Boolean(cmp <= 0)
	case ">":
		return Boolean(cmp > 0)
	case ">=":
		return Boolean(cmp >= 0)
	}
	return ErrorVal
}
