package relation

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Predicate is a per-tuple boolean condition — the engine's representation
// of a PaQL/SQL WHERE clause (the paper's "base predicates"). Predicates
// are evaluated against a single row of a relation.
type Predicate interface {
	Eval(r *Relation, row int) bool
	String() string
}

// CmpOp is a comparison operator in a base predicate.
type CmpOp int

const (
	// EQ is "=".
	EQ CmpOp = iota
	// NE is "<>".
	NE
	// LT is "<".
	LT
	// LE is "<=".
	LE
	// GT is ">".
	GT
	// GE is ">=".
	GE
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

func cmpFloats(op CmpOp, a, b float64) bool {
	switch op {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	case GE:
		return a >= b
	}
	return false
}

func cmpStrings(op CmpOp, a, b string) bool {
	c := strings.Compare(a, b)
	switch op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	case GE:
		return c >= 0
	}
	return false
}

// Compare is a predicate of the form "column op constant". It is safe
// for concurrent evaluation (SketchRefine can race refinement
// orders over one shared spec, so the same predicate is evaluated from
// several goroutines, possibly against different relations).
type Compare struct {
	Col   string
	Op    CmpOp
	Const Value

	// cached holds the last (relation, column-index) resolution as an
	// immutable snapshot swapped atomically: concurrent evaluators can
	// never pair one relation's column index with another relation.
	cached atomic.Pointer[compareResolution]
}

// compareResolution is one immutable column lookup.
type compareResolution struct {
	res *Relation
	idx int
}

// NewCompare builds a comparison predicate on the named column.
func NewCompare(col string, op CmpOp, c Value) *Compare {
	return &Compare{Col: col, Op: op, Const: c}
}

// Eval implements Predicate.
func (p *Compare) Eval(r *Relation, row int) bool {
	cr := p.cached.Load()
	if cr == nil || cr.res != r {
		cr = &compareResolution{res: r, idx: r.Schema().Lookup(p.Col)}
		p.cached.Store(cr)
	}
	if cr.idx < 0 {
		return false
	}
	cell := r.Value(row, cr.idx)
	if cell.Type() == String || p.Const.Type() == String {
		if cell.Type() != String || p.Const.Type() != String {
			return false
		}
		return cmpStrings(p.Op, cell.s, p.Const.s)
	}
	return cmpFloats(p.Op, cell.num(), p.Const.num())
}

// String implements Predicate.
func (p *Compare) String() string {
	if p.Const.Type() == String {
		return fmt.Sprintf("%s %s '%s'", p.Col, p.Op, p.Const.s)
	}
	return fmt.Sprintf("%s %s %s", p.Col, p.Op, p.Const)
}

// Between is a predicate "column BETWEEN lo AND hi" (inclusive).
type Between struct {
	Col    string
	Lo, Hi float64
}

// Eval implements Predicate.
func (p *Between) Eval(r *Relation, row int) bool {
	c := r.Schema().Lookup(p.Col)
	if c < 0 || !r.Schema().Col(c).Type.Numeric() {
		return false
	}
	v := r.Float(row, c)
	return v >= p.Lo && v <= p.Hi
}

// String implements Predicate.
func (p *Between) String() string {
	return fmt.Sprintf("%s BETWEEN %g AND %g", p.Col, p.Lo, p.Hi)
}

// And is the conjunction of its children.
type And struct{ Kids []Predicate }

// Eval implements Predicate.
func (p *And) Eval(r *Relation, row int) bool {
	for _, k := range p.Kids {
		if !k.Eval(r, row) {
			return false
		}
	}
	return true
}

// String implements Predicate.
func (p *And) String() string { return joinPreds(p.Kids, " AND ") }

// Or is the disjunction of its children.
type Or struct{ Kids []Predicate }

// Eval implements Predicate.
func (p *Or) Eval(r *Relation, row int) bool {
	for _, k := range p.Kids {
		if k.Eval(r, row) {
			return true
		}
	}
	return false
}

// String implements Predicate.
func (p *Or) String() string { return joinPreds(p.Kids, " OR ") }

// Not negates its child.
type Not struct{ Kid Predicate }

// Eval implements Predicate.
func (p *Not) Eval(r *Relation, row int) bool { return !p.Kid.Eval(r, row) }

// String implements Predicate.
func (p *Not) String() string { return "NOT (" + p.Kid.String() + ")" }

// FuncPred wraps an arbitrary per-tuple function as a Predicate. It is
// used by the PaQL compiler for conditions (e.g. arithmetic comparisons)
// that the structured predicate types do not cover.
type FuncPred struct {
	Fn   func(r *Relation, row int) bool
	Desc string
}

// Eval implements Predicate.
func (p *FuncPred) Eval(r *Relation, row int) bool { return p.Fn(r, row) }

// String implements Predicate.
func (p *FuncPred) String() string {
	if p.Desc == "" {
		return "<func>"
	}
	return p.Desc
}

// True is the always-true predicate.
type True struct{}

// Eval implements Predicate.
func (True) Eval(*Relation, int) bool { return true }

// String implements Predicate.
func (True) String() string { return "TRUE" }

func joinPreds(kids []Predicate, sep string) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = "(" + k.String() + ")"
	}
	return strings.Join(parts, sep)
}
