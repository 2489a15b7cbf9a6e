package cep

import "fmt"

// The planner maps a parsed query onto the statement's running state: which
// event fields to capture, which of them key the groups, which feed
// aggregates, and the select and having expressions rebound to read the
// group under evaluation. What the running state cannot express is a
// Compile error naming the clause.

// statNeed flags which sliding extrema an aggregated field must maintain.
type statNeed struct{ min, max bool }

// aggPlan is one planned aggregate call.
type aggPlan struct {
	fn      string
	star    bool
	statIdx int // index into per-group stats / recIdx (-1 for count(*) and last)
	fldIdx  int // index into evFields for the argument (-1 for count(*))
}

// plan binds the statement's query to its running state.
func (s *Statement) plan() error {
	q := s.query
	aggregates := len(q.GroupBy) > 0 || q.Having != nil
	for _, it := range q.Select {
		aggregates = aggregates || it.Expr.hasAggregate()
	}
	if !aggregates {
		return fmt.Errorf("cep: select clause: no aggregate, group by or having (row-per-event statements are not supported)")
	}
	if len(q.GroupBy) > maxGroupKeyFields {
		return fmt.Errorf("cep: group by clause: %d keys, at most %d are supported", len(q.GroupBy), maxGroupKeyFields)
	}
	for _, g := range q.GroupBy {
		f, ok := g.(*fieldExpr)
		if !ok {
			return fmt.Errorf("cep: group by clause: key %s is not a plain field", g.text())
		}
		s.groupIdx = append(s.groupIdx, s.fieldIndex(f.name))
	}
	// "having cnt > 10" refers to "count(*) as cnt": an alias resolves to the
	// first select item carrying it.
	aliases := make(map[string]Expr, len(q.Select))
	for _, it := range q.Select {
		bound, err := s.bind(it.Expr, nil)
		if err != nil {
			return fmt.Errorf("cep: select clause: %w", err)
		}
		s.sel = append(s.sel, bound)
		if _, dup := aliases[it.Alias]; !dup {
			aliases[it.Alias] = bound
		}
	}
	if q.Having != nil {
		bound, err := s.bind(q.Having, aliases)
		if err != nil {
			return fmt.Errorf("cep: having clause: %w", err)
		}
		s.having = bound
	}
	s.scratch = make([]Val, len(s.evFields))
	s.cols = make([]Val, len(s.sel))
	return nil
}

// fieldIndex interns a captured field name.
func (s *Statement) fieldIndex(name string) int {
	for i, f := range s.evFields {
		if f == name {
			return i
		}
	}
	s.evFields = append(s.evFields, name)
	return len(s.evFields) - 1
}

// recFieldIndex interns a per-record retained field, returning its stats
// slot.
func (s *Statement) recFieldIndex(name string) int {
	fi := s.fieldIndex(name)
	for i, ri := range s.recIdx {
		if ri == fi {
			return i
		}
	}
	s.recIdx = append(s.recIdx, fi)
	s.needs = append(s.needs, statNeed{})
	return len(s.recIdx) - 1
}

// bind copies a parsed expression onto nodes reading group state. aliases
// is non-nil only for the having clause.
func (s *Statement) bind(e Expr, aliases map[string]Expr) (Expr, error) {
	switch x := e.(type) {
	case *fieldExpr:
		if sel, ok := aliases[x.name]; ok {
			return sel, nil
		}
		return &groupField{s: s, idx: s.fieldIndex(x.name), name: x.name}, nil
	case *aggExpr:
		idx, err := s.addAgg(x)
		if err != nil {
			return nil, err
		}
		bound := *x
		bound.s, bound.idx = s, idx
		return &bound, nil
	case *unaryExpr:
		sub, err := s.bind(x.sub, aliases)
		if err != nil {
			return nil, err
		}
		return &unaryExpr{op: x.op, sub: sub}, nil
	case *binaryExpr:
		l, err := s.bind(x.left, aliases)
		if err != nil {
			return nil, err
		}
		r, err := s.bind(x.right, aliases)
		if err != nil {
			return nil, err
		}
		return &binaryExpr{op: x.op, left: l, right: r}, nil
	}
	return e, nil // literal
}

// addAgg plans one aggregate call, deduplicating identical ones.
func (s *Statement) addAgg(x *aggExpr) (int, error) {
	ap := aggPlan{fn: x.fn, star: x.star, statIdx: -1, fldIdx: -1}
	if !x.star {
		f, ok := x.arg.(*fieldExpr)
		if !ok {
			return 0, fmt.Errorf("aggregate %s: argument is not a plain field", x.text())
		}
		ap.fldIdx = s.fieldIndex(f.name)
		if x.fn != "last" { // last reads the group's representative
			ap.statIdx = s.recFieldIndex(f.name)
			s.needs[ap.statIdx].min = s.needs[ap.statIdx].min || x.fn == "min"
			s.needs[ap.statIdx].max = s.needs[ap.statIdx].max || x.fn == "max"
		}
	}
	for i, have := range s.aggs {
		if have == ap {
			return i, nil
		}
	}
	s.aggs = append(s.aggs, ap)
	return len(s.aggs) - 1, nil
}
