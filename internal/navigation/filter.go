package navigation

import (
	"fmt"
	"strings"

	"repro/internal/conceptual"
)

// predicate is a compiled member filter: attribute OP literal.
type predicate struct {
	attr  string
	op    string
	value string
}

// compileWhere parses a ContextDef.Where expression. The grammar is one
// comparison — `attr OP literal` — with OP one of = != < <= > >= and the
// literal optionally single-quoted. Comparisons are numeric when both
// sides parse as integers, lexicographic otherwise. Examples:
//
//	year >= 1910
//	technique = 'Oil on canvas'
//	title != ''
func compileWhere(src string) (*predicate, error) {
	s := strings.TrimSpace(src)
	if s == "" {
		return nil, nil
	}
	for _, op := range []string{"!=", ">=", "<=", "=", ">", "<"} {
		i := strings.Index(s, op)
		if i <= 0 {
			continue
		}
		attr := strings.TrimSpace(s[:i])
		val := strings.TrimSpace(s[i+len(op):])
		if attr == "" {
			return nil, fmt.Errorf("navigation: filter %q: missing attribute", src)
		}
		if strings.ContainsAny(attr, " \t'\"<>=!") {
			return nil, fmt.Errorf("navigation: filter %q: bad attribute %q", src, attr)
		}
		if strings.HasPrefix(val, "'") {
			if !strings.HasSuffix(val, "'") || len(val) < 2 {
				return nil, fmt.Errorf("navigation: filter %q: unterminated quote", src)
			}
			val = val[1 : len(val)-1]
		}
		return &predicate{attr: attr, op: op, value: val}, nil
	}
	return nil, fmt.Errorf("navigation: filter %q: no comparison operator", src)
}

// matches evaluates the predicate against an instance's attribute.
func (p *predicate) matches(inst *conceptual.Instance) bool {
	got := inst.Attr(p.attr)
	gi, gnum := atoi(got)
	wi, wnum := atoi(p.value)
	if gnum && wnum {
		switch p.op {
		case "=":
			return gi == wi
		case "!=":
			return gi != wi
		case "<":
			return gi < wi
		case "<=":
			return gi <= wi
		case ">":
			return gi > wi
		case ">=":
			return gi >= wi
		}
		return false
	}
	switch p.op {
	case "=":
		return got == p.value
	case "!=":
		return got != p.value
	case "<":
		return got < p.value
	case "<=":
		return got <= p.value
	case ">":
		return got > p.value
	case ">=":
		return got >= p.value
	}
	return false
}

// filterInstances applies the predicate, keeping order; with no
// predicate it returns insts itself.
func filterInstances(insts []*conceptual.Instance, p *predicate) []*conceptual.Instance {
	if p == nil {
		return insts
	}
	out := insts[:0:0]
	for _, inst := range insts {
		if p.matches(inst) {
			out = append(out, inst)
		}
	}
	return out
}
