// Package lp implements a dense two-phase primal simplex solver for linear
// programs with bounded variables:
//
//	maximize (or minimize)  cᵀx
//	subject to              Aᵢ·x (≤ | = | ≥) bᵢ   for each row i
//	                        loⱼ ≤ xⱼ ≤ hiⱼ        for each variable j
//
// It is the continuous-relaxation engine underneath the branch-and-bound
// ILP solver in internal/ilp, which together replace the proprietary ILP
// solver (CPLEX) used in the paper. Variable bounds are handled natively
// by the simplex (nonbasic variables rest at either bound), so the REPEAT
// bounds and per-group count caps of package queries do not add rows.
//
// Every variable must have at least one finite bound; free variables are
// not supported (package-query translations always produce xⱼ ≥ 0).
//
// The tableau is compacted: a variable fixed by its bounds (as branching
// and reduced-cost fixing leave most of a branch-and-bound node's
// variables) gets no column, and pricing is fused into the pivot's
// reduced-cost update, so an iteration costs one pass over the columns
// that can still move. Both leave every floating-point operation on
// those columns as in the full dense tableau, so a solve takes the same
// pivots to the same vertex, bit for bit; the differential test in
// oracle_test.go holds the package to that. The tableau's storage is
// recycled across solves.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
)

// ConstraintOp is the sense of one linear constraint row.
type ConstraintOp int

const (
	// LE is "≤".
	LE ConstraintOp = iota
	// GE is "≥".
	GE
	// EQ is "=".
	EQ
)

// String returns the mathematical spelling of the operator.
func (op ConstraintOp) String() string {
	switch op {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("ConstraintOp(%d)", int(op))
	}
}

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraint system has no solution.
	Infeasible
	// Unbounded means the objective is unbounded over the feasible region.
	Unbounded
	// IterLimit means the iteration budget was exhausted (numerical
	// trouble); treat as a solver failure.
	IterLimit
)

// canceled is the internal status for a context-canceled run; SolveCtx
// converts it to the context's error before returning.
const canceled Status = -1

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Problem is a linear program. A and B must have the same number of rows;
// every row of A, and C, Lo, Hi must have length NumVars.
type Problem struct {
	Maximize bool
	C        []float64
	A        [][]float64
	Op       []ConstraintOp
	B        []float64
	Lo       []float64 // defaults to 0 when nil
	Hi       []float64 // defaults to +Inf when nil
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return len(p.C) }

// NumRows returns the number of constraint rows.
func (p *Problem) NumRows() int { return len(p.B) }

// Validate checks dimensions and bounds.
func (p *Problem) Validate() error {
	n := len(p.C)
	if len(p.A) != len(p.B) || len(p.Op) != len(p.B) {
		return fmt.Errorf("lp: %d rows in A, %d in B, %d ops", len(p.A), len(p.B), len(p.Op))
	}
	for i, row := range p.A {
		if len(row) != n {
			return fmt.Errorf("lp: row %d has %d coefficients, want %d", i, len(row), n)
		}
	}
	if p.Lo != nil && len(p.Lo) != n {
		return fmt.Errorf("lp: Lo has length %d, want %d", len(p.Lo), n)
	}
	if p.Hi != nil && len(p.Hi) != n {
		return fmt.Errorf("lp: Hi has length %d, want %d", len(p.Hi), n)
	}
	for j := 0; j < n; j++ {
		lo, hi := p.boundsAt(j)
		if lo > hi {
			return fmt.Errorf("lp: variable %d has empty domain [%g, %g]", j, lo, hi)
		}
		if math.IsInf(lo, -1) && math.IsInf(hi, 1) {
			return fmt.Errorf("lp: variable %d is free; free variables are unsupported", j)
		}
	}
	return nil
}

func (p *Problem) boundsAt(j int) (lo, hi float64) {
	lo, hi = 0, math.Inf(1)
	if p.Lo != nil {
		lo = p.Lo[j]
	}
	if p.Hi != nil {
		hi = p.Hi[j]
	}
	return lo, hi
}

// Solution is the result of a solve.
type Solution struct {
	Status     Status
	X          []float64 // structural variable values (valid when Optimal)
	Objective  float64   // cᵀx in the problem's own sense (valid when Optimal)
	Iterations int
	// DJ holds the reduced costs of the structural variables at the
	// optimum, in the internal maximization sense (minimization
	// problems are solved as max −C). At optimality, a variable
	// nonbasic at its lower bound has DJ ≤ 0 and raising it by Δ can
	// improve the (maximization) objective by at most DJ·Δ; a variable
	// at its upper bound has DJ ≥ 0. Branch-and-bound uses these for
	// reduced-cost variable fixing.
	DJ []float64
}

// ErrBadProblem wraps validation failures.
var ErrBadProblem = errors.New("lp: invalid problem")

const (
	feasTol = 1e-7
	optTol  = 1e-9
	pivTol  = 1e-9
)

type varStatus uint8

const (
	atLower varStatus = iota
	atUpper
	basic
)

// tableau is the dense working state of the simplex: T = B⁻¹·[A | S | D]
// maintained explicitly, plus the reduced-cost row.
//
// A structural whose bounds fix it (hi − lo ≤ pivTol) can never enter
// the basis, so it gets no column: it only shifts the initial residual,
// and its reduced cost is read off the artificial columns once at the
// end. The kept columns stay in the full tableau's order — free
// structurals, slacks, artificials — so the Dantzig and Bland choices
// are unchanged, and every kept column receives exactly the
// floating-point operations it would in the full tableau.
type tableau struct {
	m, nCols int
	nFree    int         // leading columns that are structurals
	nPrice   int         // leading columns that may enter: all in phase 1, all but the artificials in phase 2
	t        [][]float64 // m rows of nCols, views into back
	back     []float64
	floats   []float64 // backing array of back and the other float64 slices
	ints     []int     // backing array of the int slices
	beta     []float64 // values of basic variables
	basis    []int     // column index basic in each row
	rowOf    []int     // row in which each column is basic, or -1
	status   []varStatus
	lo, hi   []float64
	d        []float64 // reduced costs c_j − c_Bᵀ T_j
	c        []float64 // current-phase objective (maximize)
	cb       []float64 // scratch: c over the basis
	y        []float64 // scratch: duals for the fixed structurals' reduced costs
	sign     []float64 // ±1 that each row was scaled by so its artificial starts at +1
	free     []int     // problem column of each free structural column
	start    []float64 // starting (nonbasic) value of each structural
	// live lists, ascending, the columns whose objective term c_j·x_j
	// may be nonzero: c_j ≠ 0 and basic or resting at a bound where
	// the term is nonzero. objFixed holds the nonzero terms of the fixed
	// structurals, by problem column. objective merges the two, adding
	// the same nonzero terms in the same order as a scan over every
	// column of the full tableau.
	live     []int
	objFixed []fixedTerm
	// dantzig and bland are the entering columns for the next
	// iteration under each rule, -1 at optimality. price sets both,
	// and pivot sets them in the same pass that updates d.
	dantzig, bland int
	iter           int
	maxIter        int
	done           <-chan struct{} // cancellation signal, checked periodically
}

// fixedTerm is the constant objective term c_j·x_j of a fixed structural.
type fixedTerm struct {
	col int // problem column j
	v   float64
}

// tableaus recycles tableaus across solves: branch and bound solves
// thousands of same-shaped LPs, and a fresh m×n matrix per node would
// dominate both allocation and peak memory.
var tableaus = sync.Pool{New: func() any { return new(tableau) }}

// slab hands out consecutive pieces of one backing array.
type slab[T any] []T

// take returns the next k elements, capped so appends cannot spill
// into the next piece.
func (s *slab[T]) take(k int) []T {
	r := (*s)[:k:k]
	*s = (*s)[k:]
	return r
}

// grow returns buf with length n, reallocating only when it does not fit.
func grow[T any](buf []T, n int) slab[T] {
	if cap(buf) < n {
		buf = make([]T, n)
	}
	return buf[:n]
}

// size lays out the tableau's storage for n structurals, m rows and
// nCols columns. A recycled tableau reuses its backing arrays, so most
// solves allocate nothing here and a fresh tableau allocates one array
// per element type.
func (tb *tableau) size(n, m, nCols int) {
	fs := grow(tb.floats, 4*nCols+4*m+n+m*nCols)
	tb.floats = fs
	tb.lo, tb.hi, tb.d, tb.c = fs.take(nCols), fs.take(nCols), fs.take(nCols), fs.take(nCols)
	tb.beta, tb.cb, tb.y, tb.sign = fs.take(m), fs.take(m), fs.take(m), fs.take(m)
	tb.start, tb.back = fs.take(n), fs.take(m*nCols)
	is := grow(tb.ints, 2*nCols+m+n)
	tb.ints = is
	tb.rowOf, tb.basis = is.take(nCols), is.take(m)
	tb.free, tb.live = is.take(n)[:0], is.take(nCols)[:0]
	tb.status = grow(tb.status, nCols)
	tb.t = grow(tb.t, m)
	tb.objFixed = grow(tb.objFixed, n)[:0]
}

// value returns the current value of column j.
func (tb *tableau) value(j int) float64 {
	switch tb.status[j] {
	case atUpper:
		return tb.hi[j]
	case atLower:
		return tb.lo[j]
	default:
		return tb.beta[tb.rowOf[j]]
	}
}

// recomputeReducedCosts sets d_j = c_j − c_Bᵀ T_j for every column that
// may enter, then prices.
func (tb *tableau) recomputeReducedCosts() {
	cb := tb.cb
	for i, bj := range tb.basis {
		cb[i] = tb.c[bj]
	}
	for j := 0; j < tb.nPrice; j++ {
		s := tb.c[j]
		for i := 0; i < tb.m; i++ {
			if cb[i] != 0 {
				s -= cb[i] * tb.t[i][j]
			}
		}
		tb.d[j] = s
	}
	for _, bj := range tb.basis {
		tb.d[bj] = 0
	}
	tb.price()
}

// price scans the reduced costs for the next entering column under both
// rules: Bland's lowest-index eligible column (anti-cycling) and
// Dantzig's most violating one. pivot does the same scan fused into its
// reduced-cost update; this separate pass runs only when d or a status
// changed without a pivot.
func (tb *tableau) price() {
	best, bestScore, first := -1, optTol, -1
	d := tb.d[:tb.nPrice]
	status := tb.status[:len(d)]
	for j, dj := range d {
		var score float64
		switch status[j] {
		case basic:
			continue
		case atLower:
			score = dj
		default:
			score = -dj
		}
		if score > optTol {
			if first < 0 {
				first = j
			}
			if score > bestScore {
				best, bestScore = j, score
			}
		}
	}
	tb.dantzig, tb.bland = best, first
}

// pivot performs the basis change with entering column q and leaving row
// r, whose variable leaves at status leave, updating the tableau matrix
// and the reduced-cost row and pricing the next iteration. beta is not
// touched here: it stores actual basic-variable values (not B⁻¹b), which
// the caller has already advanced and will overwrite for row r.
func (tb *tableau) pivot(r, q int, leave varStatus) {
	leaving := tb.basis[r]
	tb.status[leaving] = leave
	tb.rowOf[leaving] = -1
	tb.basis[r] = q
	tb.rowOf[q] = r
	tb.status[q] = basic
	tb.track(leaving)
	tb.track(q)

	piv := tb.t[r][q]
	row := tb.t[r]
	inv := 1 / piv
	for j := range row {
		row[j] *= inv
	}
	for i := 0; i < tb.m; i++ {
		if i == r {
			continue
		}
		f := tb.t[i][q]
		if f == 0 {
			continue
		}
		ti := tb.t[i][:len(row)]
		for j := range ti {
			ti[j] -= f * row[j]
		}
	}
	f := tb.d[q]
	if f == 0 {
		tb.d[q] = 0
		tb.price()
		return
	}
	best, bestScore, first := -1, optTol, -1
	d := tb.d[:tb.nPrice]
	row = row[:len(d)]
	status := tb.status[:len(d)]
	for j := range d {
		dj := d[j] - f*row[j]
		d[j] = dj
		var score float64
		switch status[j] {
		case basic:
			continue
		case atLower:
			score = dj
		default:
			score = -dj
		}
		if score > optTol {
			if first < 0 {
				first = j
			}
			if score > bestScore {
				best, bestScore = j, score
			}
		}
	}
	tb.d[q] = 0
	tb.dantzig, tb.bland = best, first
}

// step runs one simplex iteration. It returns:
// done=true when optimal, unbounded=true when the LP is unbounded.
func (tb *tableau) step(bland bool) (done, unbounded bool) {
	q := tb.dantzig
	if bland {
		q = tb.bland
	}
	if q < 0 {
		return true, false
	}
	// Direction: +1 when increasing from the lower bound, −1 when
	// decreasing from the upper bound.
	sigma := 1.0
	if tb.status[q] == atUpper {
		sigma = -1
	}
	deltaMax := tb.hi[q] - tb.lo[q] // may be +Inf
	delta := deltaMax
	leaveRow := -1
	leaveToUpper := false
	for i := 0; i < tb.m; i++ {
		y := tb.t[i][q] * sigma
		bj := tb.basis[i]
		if y > pivTol {
			// Basic variable decreases toward its lower bound.
			if lim := (tb.beta[i] - tb.lo[bj]) / y; lim < delta-pivTol ||
				(lim < delta+pivTol && leaveRow >= 0 && math.Abs(tb.t[i][q]) > math.Abs(tb.t[leaveRow][q])) {
				if lim < 0 {
					lim = 0
				}
				delta, leaveRow, leaveToUpper = lim, i, false
			}
		} else if y < -pivTol {
			// Basic variable increases toward its upper bound.
			if math.IsInf(tb.hi[bj], 1) {
				continue
			}
			if lim := (tb.hi[bj] - tb.beta[i]) / -y; lim < delta-pivTol ||
				(lim < delta+pivTol && leaveRow >= 0 && math.Abs(tb.t[i][q]) > math.Abs(tb.t[leaveRow][q])) {
				if lim < 0 {
					lim = 0
				}
				delta, leaveRow, leaveToUpper = lim, i, true
			}
		}
	}
	if math.IsInf(delta, 1) {
		return false, true
	}
	// Update basic values for the movement of q by sigma·delta.
	if delta != 0 {
		for i := 0; i < tb.m; i++ {
			tb.beta[i] -= sigma * delta * tb.t[i][q]
		}
	}
	if leaveRow < 0 {
		// Bound flip: q moves to its opposite bound, basis unchanged.
		if tb.status[q] == atLower {
			tb.status[q] = atUpper
		} else {
			tb.status[q] = atLower
		}
		tb.track(q)
		tb.price()
		return false, false
	}
	// q enters the basis at value bound + sigma·delta.
	enterVal := tb.lo[q]
	if tb.status[q] == atUpper {
		enterVal = tb.hi[q]
	}
	enterVal += sigma * delta
	leave := atLower
	if leaveToUpper {
		leave = atUpper
	}
	tb.pivot(leaveRow, q, leave)
	tb.beta[leaveRow] = enterVal
	return false, false
}

// run iterates to optimality, switching to Bland's rule after a stall.
func (tb *tableau) run() Status {
	stall := 0
	lastObj := math.Inf(-1)
	for tb.iter = 0; tb.iter < tb.maxIter; tb.iter++ {
		if tb.done != nil && tb.iter&63 == 0 {
			select {
			case <-tb.done:
				return canceled
			default:
			}
		}
		bland := stall > 2*(tb.m+8)
		done, unbounded := tb.step(bland)
		if done {
			return Optimal
		}
		if unbounded {
			return Unbounded
		}
		obj := tb.objective()
		if obj > lastObj+1e-12 {
			stall = 0
			lastObj = obj
		} else {
			stall++
		}
	}
	return IterLimit
}

// track updates column j's membership of live after its status changed.
func (tb *tableau) track(j int) {
	in := tb.c[j] != 0 && (tb.status[j] == basic || tb.c[j]*tb.value(j) != 0)
	i, found := slices.BinarySearch(tb.live, j)
	if in && !found {
		tb.live = slices.Insert(tb.live, i, j)
	} else if !in && found {
		tb.live = slices.Delete(tb.live, i, i+1)
	}
}

// objective returns cᵀx for stall detection. Terms it leaves out are
// exactly zero, so the sum is bit-identical to one over every column.
func (tb *tableau) objective() float64 {
	z := 0.0
	fixed := tb.objFixed
	for _, j := range tb.live {
		for len(fixed) > 0 && fixed[0].col < tb.free[j] {
			z += fixed[0].v
			fixed = fixed[1:]
		}
		z += tb.c[j] * tb.value(j)
	}
	for _, f := range fixed {
		z += f.v
	}
	return z
}

// load sets up the phase-1 tableau for p: nonbasic structurals at a
// finite bound, slacks at 0, and one artificial per row basic at the
// row's residual.
func (tb *tableau) load(p *Problem) {
	n, m := p.NumVars(), p.NumRows()
	nSlack := 0
	for _, op := range p.Op {
		if op != EQ {
			nSlack++
		}
	}
	nFree := 0
	for j := 0; j < n; j++ {
		if lo, hi := p.boundsAt(j); !(hi-lo <= pivTol) {
			nFree++
		}
	}
	nCols := nFree + nSlack + m
	tb.size(n, m, nCols)
	for j := 0; j < n; j++ {
		lo, hi := p.boundsAt(j)
		tb.start[j] = lo
		if math.IsInf(lo, -1) {
			tb.start[j] = hi
		}
		if !(hi-lo <= pivTol) {
			tb.free = append(tb.free, j)
		}
	}
	tb.m, tb.nCols, tb.nFree, tb.nPrice = m, nCols, nFree, nCols
	tb.maxIter = 200*(m+n) + 5000

	for k := 0; k < nFree; k++ {
		tb.lo[k], tb.hi[k] = p.boundsAt(tb.free[k])
		if math.IsInf(tb.lo[k], -1) {
			tb.status[k] = atUpper
		} else {
			tb.status[k] = atLower
		}
	}
	// Slacks s ≥ 0 have coefficient +1 in ≤ rows and −1 in ≥ rows;
	// artificials are fixed to 0 after phase 1.
	for k := nFree; k < nCols; k++ {
		tb.lo[k], tb.hi[k] = 0, math.Inf(1)
		tb.status[k] = atLower
	}
	for k := range tb.rowOf {
		tb.rowOf[k] = -1
	}

	slack := nFree
	for i := 0; i < m; i++ {
		row := tb.back[i*nCols : (i+1)*nCols : (i+1)*nCols]
		tb.t[i] = row
		a := p.A[i]
		// Residual b' = b − A·x_nonbasic(bounds), over every structural.
		resid := p.B[i]
		for j := 0; j < n; j++ {
			resid -= a[j] * tb.start[j]
		}
		for k, j := range tb.free {
			row[k] = a[j]
		}
		clear(row[nFree:])
		if p.Op[i] != EQ {
			if p.Op[i] == LE {
				row[slack] = 1
			} else {
				row[slack] = -1
			}
			// Slack starts nonbasic at 0, so no residual contribution.
			slack++
		}
		sign := 1.0
		if resid < 0 {
			sign = -1
		}
		art := nFree + nSlack + i
		row[art] = sign
		tb.basis[i] = art
		tb.rowOf[art] = i
		tb.status[art] = basic
		tb.beta[i] = resid * sign // = |resid| ≥ 0
		// Row is stored as B⁻¹·row with B the ±1 diagonal of artificials:
		if sign < 0 {
			for k := range row {
				row[k] = -row[k]
			}
			tb.beta[i] = -resid
		}
		tb.sign[i] = sign
	}

	// Phase 1: maximize −Σ artificials.
	clear(tb.c)
	for k := nCols - m; k < nCols; k++ {
		tb.c[k] = -1
		tb.live = append(tb.live, k)
	}
}

// startPhase2 fixes the artificials at 0 so they cannot re-enter with
// positive value, and installs the real objective (negated for
// minimization).
func (tb *tableau) startPhase2(p *Problem) {
	aBase := tb.nCols - tb.m
	for k := aBase; k < tb.nCols; k++ {
		tb.hi[k] = 0
		if tb.status[k] != basic {
			tb.status[k] = atLower
		}
	}
	tb.nPrice = aBase

	clear(tb.c)
	tb.live = tb.live[:0]
	tb.objFixed = tb.objFixed[:0]
	k := 0
	for j := 0; j < p.NumVars(); j++ {
		cj := p.C[j]
		if !p.Maximize {
			cj = -cj
		}
		if k < tb.nFree && tb.free[k] == j {
			tb.c[k] = cj
			tb.track(k)
			k++
		} else if cj != 0 {
			if v := cj * tb.start[j]; v != 0 {
				tb.objFixed = append(tb.objFixed, fixedTerm{col: j, v: v})
			}
		}
	}
}

// solution reads the optimal phase-2 tableau into a Solution.
func (tb *tableau) solution(p *Problem, iters int) *Solution {
	n, m := p.NumVars(), tb.m
	x := make([]float64, n)
	dj := make([]float64, n)
	// The fixed structurals' reduced costs are c_j − yᵀA_j with the
	// duals y = c_Bᵀ B⁻¹ read off the artificial columns; row i of the
	// initial tableau was A_i scaled by sign_i.
	aBase := tb.nCols - m
	if tb.nFree < n {
		for i, bj := range tb.basis {
			tb.cb[i] = tb.c[bj]
		}
		for k := 0; k < m; k++ {
			s := 0.0
			for i := 0; i < m; i++ {
				s += tb.cb[i] * tb.t[i][aBase+k]
			}
			tb.y[k] = s * tb.sign[k]
		}
	}
	k := 0
	for j := 0; j < n; j++ {
		if k < tb.nFree && tb.free[k] == j {
			x[j] = tb.value(k)
			dj[j] = tb.d[k]
			k++
		} else {
			x[j] = tb.start[j]
			s := p.C[j]
			if !p.Maximize {
				s = -s
			}
			for i := 0; i < m; i++ {
				s -= tb.y[i] * p.A[i][j]
			}
			dj[j] = s
		}
		// Clamp tiny bound violations from floating-point drift.
		if lo, hi := p.boundsAt(j); x[j] < lo {
			x[j] = lo
		} else if x[j] > hi {
			x[j] = hi
		}
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.C[j] * x[j]
	}
	return &Solution{Status: Optimal, X: x, Objective: obj, Iterations: iters, DJ: dj}
}

// SolveCtx solves the linear program, aborting early (with the context's
// error) when ctx is canceled or its deadline passes. Cancellation is
// polled every 64 simplex iterations, so an abandoned solve stops within
// microseconds rather than running its full iteration budget.
func SolveCtx(ctx context.Context, p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProblem, err)
	}
	tb := tableaus.Get().(*tableau)
	defer tableaus.Put(tb)
	tb.load(p)
	tb.done = nil
	if ctx != nil {
		tb.done = ctx.Done()
	}

	tb.recomputeReducedCosts()
	st := tb.run()
	iters := tb.iter
	if st == canceled {
		return nil, ctx.Err()
	}
	if st == IterLimit {
		return &Solution{Status: IterLimit, Iterations: iters}, nil
	}
	if tb.objective() < -feasTol {
		return &Solution{Status: Infeasible, Iterations: iters}, nil
	}

	tb.startPhase2(p)
	tb.recomputeReducedCosts()
	st = tb.run()
	iters += tb.iter
	switch st {
	case canceled:
		return nil, ctx.Err()
	case Unbounded:
		return &Solution{Status: Unbounded, Iterations: iters}, nil
	case IterLimit:
		return &Solution{Status: IterLimit, Iterations: iters}, nil
	}
	return tb.solution(p, iters), nil
}
