package main

// An independent checker for the package queries the workloads send.
// The benchmark takes no package on the solver's word: every returned
// package is re-evaluated here, from its returned rows, against the
// query text. The checker parses the PaQL subset the workload queries
// use (linear combinations of COUNT/SUM/AVG/MIN/MAX aggregates and
// counting subqueries, compared with =, <=, >=, <, > or BETWEEN) with
// its own small parser, so a defect shared by the solver's parser and
// translator cannot hide here.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// checkTol is the relative slack allowed on a constraint bound: the
// simplex works in floating point with its own feasibility tolerance.
const checkTol = 1e-6

// pkgRow is one distinct tuple of a package: its numeric attribute
// values and multiplicity.
type pkgRow struct {
	vals map[string]float64
	mult int
}

// aggregate is one aggregate term of a linear expression.
type aggregate struct {
	fn   string // COUNT, SUM, AVG, MIN, MAX, or CNTWHERE
	attr string // empty for COUNT(P.*)
	op   string // CNTWHERE: the row predicate's comparison
	rhs  float64
}

// term is coef × aggregate, or a bare constant when agg is nil.
type term struct {
	coef float64
	agg  *aggregate
}

// constraint is lo ≤ Σ terms ≤ hi (either side may be infinite).
type constraint struct {
	terms  []term
	lo, hi float64
	text   string
}

// checkQuery is a parsed package query.
type checkQuery struct {
	repeat      int // REPEAT k: each tuple at most k+1 times; -1 unbounded
	constraints []constraint
	objective   []term // nil for feasibility-only queries
	maximize    bool
}

type lexer struct {
	toks []string
	pos  int
}

func lex(s string) []string {
	var toks []string
	rs := []rune(s)
	for i := 0; i < len(rs); {
		r := rs[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case unicode.IsLetter(r) || r == '_':
			j := i
			for j < len(rs) && (unicode.IsLetter(rs[j]) || unicode.IsDigit(rs[j]) || rs[j] == '_') {
				j++
			}
			toks = append(toks, string(rs[i:j]))
			i = j
		case unicode.IsDigit(r) || r == '.' && i+1 < len(rs) && unicode.IsDigit(rs[i+1]):
			j := i
			for j < len(rs) && (unicode.IsDigit(rs[j]) || rs[j] == '.' || rs[j] == 'e' || rs[j] == 'E' ||
				(rs[j] == '-' || rs[j] == '+') && (rs[j-1] == 'e' || rs[j-1] == 'E')) {
				j++
			}
			toks = append(toks, string(rs[i:j]))
			i = j
		case (r == '<' || r == '>' || r == '!') && i+1 < len(rs) && rs[i+1] == '=':
			toks = append(toks, string(rs[i:i+2]))
			i += 2
		default:
			toks = append(toks, string(r))
			i++
		}
	}
	return toks
}

func (l *lexer) peek() string {
	if l.pos < len(l.toks) {
		return l.toks[l.pos]
	}
	return ""
}

func (l *lexer) next() string {
	t := l.peek()
	l.pos++
	return t
}

func (l *lexer) is(word string) bool { return strings.EqualFold(l.peek(), word) }

func (l *lexer) expect(words ...string) error {
	for _, w := range words {
		if got := l.next(); !strings.EqualFold(got, w) {
			return fmt.Errorf("check: expected %q, got %q", w, got)
		}
	}
	return nil
}

func (l *lexer) number() (float64, error) {
	sign := 1.0
	if l.peek() == "-" {
		l.next()
		sign = -1
	}
	t := l.next()
	v, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, fmt.Errorf("check: expected a number, got %q", t)
	}
	return sign * v, nil
}

func isNumber(t string) bool {
	_, err := strconv.ParseFloat(t, 64)
	return err == nil
}

// parseCheckQuery parses the PaQL subset the workloads use.
func parseCheckQuery(paql string) (*checkQuery, error) {
	l := &lexer{toks: lex(paql)}
	if err := l.expect("SELECT", "PACKAGE", "("); err != nil {
		return nil, err
	}
	l.next() // tuple variable
	if err := l.expect(")", "AS"); err != nil {
		return nil, err
	}
	l.next() // package name
	if err := l.expect("FROM"); err != nil {
		return nil, err
	}
	l.next() // relation
	l.next() // tuple variable
	q := &checkQuery{repeat: -1}
	if l.is("REPEAT") {
		l.next()
		k, err := l.number()
		if err != nil {
			return nil, err
		}
		q.repeat = int(k)
	}
	if l.is("SUCH") {
		l.next()
		if err := l.expect("THAT"); err != nil {
			return nil, err
		}
		for {
			start := l.pos
			c, err := l.constraint()
			if err != nil {
				return nil, err
			}
			c.text = strings.Join(l.toks[start:l.pos], " ")
			q.constraints = append(q.constraints, c)
			if !l.is("AND") {
				break
			}
			l.next()
		}
	}
	if l.is("MAXIMIZE") || l.is("MINIMIZE") {
		q.maximize = l.is("MAXIMIZE")
		l.next()
		obj, err := l.expr()
		if err != nil {
			return nil, err
		}
		q.objective = obj
	}
	if l.peek() != "" {
		return nil, fmt.Errorf("check: unexpected %q", l.peek())
	}
	return q, nil
}

func (l *lexer) constraint() (constraint, error) {
	terms, err := l.expr()
	if err != nil {
		return constraint{}, err
	}
	c := constraint{terms: terms, lo: math.Inf(-1), hi: math.Inf(1)}
	op := l.next()
	if strings.EqualFold(op, "BETWEEN") {
		if c.lo, err = l.number(); err != nil {
			return c, err
		}
		if err = l.expect("AND"); err != nil {
			return c, err
		}
		c.hi, err = l.number()
		return c, err
	}
	v, err := l.number()
	if err != nil {
		return c, err
	}
	switch op {
	case "=":
		c.lo, c.hi = v, v
	case "<=", "<":
		c.hi = v
	case ">=", ">":
		c.lo = v
	default:
		return c, fmt.Errorf("check: unsupported comparison %q", op)
	}
	return c, nil
}

func (l *lexer) expr() ([]term, error) {
	var terms []term
	sign := 1.0
	for {
		t, err := l.term()
		if err != nil {
			return nil, err
		}
		t.coef *= sign
		terms = append(terms, t)
		switch l.peek() {
		case "+":
			sign = 1
		case "-":
			sign = -1
		default:
			return terms, nil
		}
		l.next()
	}
}

func (l *lexer) term() (term, error) {
	if isNumber(l.peek()) || l.peek() == "-" {
		v, err := l.number()
		if err != nil {
			return term{}, err
		}
		if l.peek() != "*" {
			return term{coef: v}, nil
		}
		l.next()
		agg, err := l.aggregate()
		return term{coef: v, agg: agg}, err
	}
	agg, err := l.aggregate()
	return term{coef: 1, agg: agg}, err
}

func (l *lexer) aggregate() (*aggregate, error) {
	if l.peek() == "(" {
		// (SELECT COUNT(*) FROM P WHERE attr op number)
		l.next()
		if err := l.expect("SELECT", "COUNT", "(", "*", ")", "FROM"); err != nil {
			return nil, err
		}
		l.next() // package name
		if err := l.expect("WHERE"); err != nil {
			return nil, err
		}
		a := &aggregate{fn: "CNTWHERE", attr: strings.ToLower(l.next()), op: l.next()}
		v, err := l.number()
		if err != nil {
			return nil, err
		}
		a.rhs = v
		return a, l.expect(")")
	}
	fn := strings.ToUpper(l.next())
	switch fn {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
	default:
		return nil, fmt.Errorf("check: unsupported aggregate %q", fn)
	}
	if err := l.expect("("); err != nil {
		return nil, err
	}
	l.next() // package name
	if err := l.expect("."); err != nil {
		return nil, err
	}
	a := &aggregate{fn: fn}
	if attr := l.next(); attr != "*" {
		a.attr = strings.ToLower(attr)
	}
	return a, l.expect(")")
}

// eval computes an aggregate over a package.
func (a *aggregate) eval(pkg []pkgRow) (float64, error) {
	val := func(r pkgRow) (float64, error) {
		v, ok := r.vals[a.attr]
		if !ok {
			return 0, fmt.Errorf("check: package row lacks attribute %q", a.attr)
		}
		return v, nil
	}
	var sum, n float64
	best := math.NaN()
	for _, r := range pkg {
		m := float64(r.mult)
		switch a.fn {
		case "COUNT":
			n += m
			continue
		case "CNTWHERE":
			v, err := val(r)
			if err != nil {
				return 0, err
			}
			if compare(v, a.op, a.rhs) {
				n += m
			}
			continue
		}
		v, err := val(r)
		if err != nil {
			return 0, err
		}
		sum += m * v
		n += m
		switch {
		case math.IsNaN(best), a.fn == "MIN" && v < best, a.fn == "MAX" && v > best:
			best = v
		}
	}
	switch a.fn {
	case "COUNT", "CNTWHERE":
		return n, nil
	case "SUM":
		return sum, nil
	case "AVG":
		if n == 0 {
			return 0, nil
		}
		return sum / n, nil
	default:
		if math.IsNaN(best) {
			return 0, nil
		}
		return best, nil
	}
}

func compare(v float64, op string, rhs float64) bool {
	switch op {
	case ">":
		return v > rhs
	case ">=":
		return v >= rhs
	case "<":
		return v < rhs
	case "<=":
		return v <= rhs
	case "=":
		return v == rhs
	case "!=":
		return v != rhs
	}
	return false
}

func evalTerms(terms []term, pkg []pkgRow) (float64, error) {
	total := 0.0
	for _, t := range terms {
		if t.agg == nil {
			total += t.coef
			continue
		}
		v, err := t.agg.eval(pkg)
		if err != nil {
			return 0, err
		}
		total += t.coef * v
	}
	return total, nil
}

// slack is the absolute tolerance for a bound of magnitude b.
func slack(b float64) float64 { return checkTol * math.Max(1, math.Abs(b)) }

// check verifies that pkg satisfies every constraint and the REPEAT
// limit, and returns the package's objective value recomputed from its
// rows.
func (q *checkQuery) check(pkg []pkgRow) (float64, error) {
	for _, r := range pkg {
		if r.mult < 1 {
			return 0, fmt.Errorf("check: multiplicity %d", r.mult)
		}
		if q.repeat >= 0 && r.mult > q.repeat+1 {
			return 0, fmt.Errorf("check: multiplicity %d exceeds REPEAT %d", r.mult, q.repeat)
		}
	}
	for _, c := range q.constraints {
		v, err := evalTerms(c.terms, pkg)
		if err != nil {
			return 0, err
		}
		if v < c.lo-slack(c.lo) || v > c.hi+slack(c.hi) {
			return 0, fmt.Errorf("check: violated %q: value %.6g", c.text, v)
		}
	}
	if q.objective == nil {
		return 0, nil
	}
	return evalTerms(q.objective, pkg)
}

// sameObjective reports whether two objective values agree within the
// checker's tolerance.
func sameObjective(a, b float64) bool {
	return math.Abs(a-b) <= slack(math.Max(math.Abs(a), math.Abs(b)))
}

// beats reports whether objective a is strictly better than b in the
// query's sense, beyond tolerance.
func (q *checkQuery) beats(a, b float64) bool {
	if sameObjective(a, b) {
		return false
	}
	if q.maximize {
		return a > b
	}
	return a < b
}

// ratio is the paper's empirical approximation ratio of a SketchRefine
// objective s against the DIRECT objective d, oriented so that 1 is
// optimal and larger is worse.
func (q *checkQuery) ratio(d, s float64) float64 {
	if sameObjective(d, s) {
		return 1
	}
	if q.maximize {
		return d / s
	}
	return s / d
}
