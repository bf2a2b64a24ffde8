package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/ilp"
	"repro/internal/lp"
	"repro/internal/obs"
)

// ErrInfeasible is returned when no package satisfies the query.
var ErrInfeasible = errors.New("core: query is infeasible")

// ErrResourceLimit is returned when the solver exhausted its node or time
// budget — the reproduction of the paper's CPLEX failures (out-of-memory
// or one-hour timeout).
var ErrResourceLimit = errors.New("core: solver resource limit exceeded")

// EvalStats records the work done by one evaluation.
type EvalStats struct {
	// Vars is the number of ILP variables after base-relation
	// elimination.
	Vars int
	// Rows is the number of ILP constraint rows.
	Rows int
	// SolverNodes is the number of branch-and-bound nodes explored.
	SolverNodes int
	// LPIterations is the total simplex iterations.
	LPIterations int
	// BuildTime is the PaQL→ILP translation/materialization time.
	BuildTime time.Duration
	// SolveTime is the time spent inside the ILP solver.
	SolveTime time.Duration
	// Subproblems is the number of ILP solves (1 for DIRECT; one per
	// sketch/refine query for SketchRefine).
	Subproblems int
	// Truncated reports that at least one solve exhausted a wall-clock or
	// node budget and a best-effort incumbent was accepted instead of a
	// proven optimum. Such results are feasible but depend on machine
	// speed and load — a rerun with a larger budget could improve them.
	Truncated bool
	// Backtracks counts SketchRefine refinement backtracks (0 for DIRECT
	// and NAIVE evaluations).
	Backtracks int
}

// Add accumulates another stats record (used by SketchRefine).
func (s *EvalStats) Add(o *EvalStats) {
	if o == nil {
		return
	}
	if o.Vars > s.Vars {
		s.Vars = o.Vars // track the largest subproblem
	}
	if o.Rows > s.Rows {
		s.Rows = o.Rows
	}
	s.SolverNodes += o.SolverNodes
	s.LPIterations += o.LPIterations
	s.BuildTime += o.BuildTime
	s.SolveTime += o.SolveTime
	s.Subproblems += o.Subproblems
	s.Truncated = s.Truncated || o.Truncated
	s.Backtracks += o.Backtracks
}

// BuildILP translates the spec restricted to the given candidate rows
// into an integer linear program, one variable per row, following the
// translation rules of Section 3.1:
//
//  1. REPEAT K bounds every variable to [0, K+1] (absent: [0, ∞));
//  2. base predicates have already eliminated variables (rows is the
//     base relation);
//  3. each global predicate becomes one linear row;
//  4. the objective is the linear objective, or the vacuous "max Σ 0·x".
//
// hi optionally overrides the per-variable upper bounds (used by the
// sketch query's per-group count caps); nil applies the REPEAT bound.
func BuildILP(spec *Spec, rows []int, hi []float64) (*ilp.Problem, error) {
	n := len(rows)
	if hi != nil && len(hi) != n {
		return nil, fmt.Errorf("core: hi has length %d, want %d", len(hi), n)
	}
	prob := &ilp.Problem{
		LP: lp.Problem{
			C:  make([]float64, n),
			Lo: make([]float64, n),
			Hi: make([]float64, n),
		},
	}
	defaultHi := math.Inf(1)
	if spec.Repeat >= 0 {
		defaultHi = float64(spec.Repeat + 1)
	}
	for j := 0; j < n; j++ {
		if hi != nil {
			prob.LP.Hi[j] = hi[j]
		} else {
			prob.LP.Hi[j] = defaultHi
		}
	}
	for _, c := range spec.Constraints {
		fn, err := c.Coef.Bind(spec.Rel)
		if err != nil {
			return nil, err
		}
		row := make([]float64, n)
		for j, r := range rows {
			row[j] = fn(r)
		}
		prob.LP.A = append(prob.LP.A, row)
		prob.LP.Op = append(prob.LP.Op, c.Op)
		prob.LP.B = append(prob.LP.B, c.RHS)
	}
	if spec.Objective != nil {
		prob.LP.Maximize = spec.Objective.Maximize
		fn, err := spec.Objective.Coef.Bind(spec.Rel)
		if err != nil {
			return nil, err
		}
		for j, r := range rows {
			prob.LP.C[j] = fn(r)
		}
	} else {
		// Vacuous objective: max Σ 0·xᵢ.
		prob.LP.Maximize = true
	}
	return prob, nil
}

// Incumbent is one improving feasible solution surfaced while a solve
// is still running — the unit of the anytime-results stream. Rows and
// Mult describe the incumbent package in the coordinates of the relation
// the subproblem was solved over (the input relation, or — when Sketch
// is true — the representative relation R̃). Objective is the
// subproblem's objective value including the spec's constant offset;
// for a DIRECT solve it is the package objective itself.
type Incumbent struct {
	Rows []int
	Mult []int
	// Objective is the incumbent's objective value.
	Objective float64
	// Nodes is the number of branch-and-bound nodes explored when the
	// incumbent was found.
	Nodes int
	// Subproblem identifies which ILP solve produced the incumbent
	// (always 0 for DIRECT; SketchRefine numbers its sketch/refine
	// solves in evaluation order).
	Subproblem int
	// Sketch marks incumbents of solves over the representative
	// relation (SketchRefine's sketch and hybrid-sketch queries), whose
	// Rows index R̃ rather than the input relation.
	Sketch bool
}

// IncumbentFunc receives improving incumbents as they are found. It is
// called synchronously from inside the solver: implementations must be
// fast and must not call back into the evaluation.
type IncumbentFunc func(Incumbent)

// hookSolver installs an ilp-level incumbent callback that maps raw
// solution vectors over rows back to package coordinates and forwards
// them to fn. A nil fn returns opt unchanged.
func hookSolver(opt ilp.Options, spec *Spec, rows []int, sub int, sketch bool, fn IncumbentFunc) ilp.Options {
	if fn == nil {
		return opt
	}
	offset := 0.0
	if spec.Objective != nil {
		offset = spec.Objective.Offset
	}
	opt.OnIncumbent = func(x []float64, obj float64, nodes int) {
		pkgRows := make([]int, 0, len(rows))
		pkgMult := make([]int, 0, len(rows))
		for j, v := range x {
			if m := int(math.Round(v)); m > 0 {
				pkgRows = append(pkgRows, rows[j])
				pkgMult = append(pkgMult, m)
			}
		}
		fn(Incumbent{
			Rows:       pkgRows,
			Mult:       pkgMult,
			Objective:  obj + offset,
			Nodes:      nodes,
			Subproblem: sub,
			Sketch:     sketch,
		})
	}
	return opt
}

// SolveRows evaluates the spec restricted to the given candidate rows
// with the DIRECT strategy: build one ILP and solve it. hi optionally
// overrides per-variable upper bounds. Every improving incumbent the
// branch-and-bound search installs is forwarded to fn (tagged with
// subproblem number sub) before the final answer is returned; a nil fn
// degrades to a plain solve. Cancellation or a context deadline aborts
// the search and returns the context's error; otherwise the error is
// ErrInfeasible, ErrResourceLimit (possibly wrapped), or an internal
// failure. The spec is not validated here: callers evaluating a whole
// query run Spec.Validate once first.
func SolveRows(ctx context.Context, spec *Spec, rows []int, hi []float64, opt ilp.Options, sub int, fn IncumbentFunc) (*Package, *EvalStats, error) {
	opt = hookSolver(opt, spec, rows, sub, false, fn)
	ctx, sp := obs.Start(ctx, "ilp")
	defer sp.Finish()
	if sp != nil {
		// Count incumbents on the span; SetAttr overwrites, so the
		// final value is the incumbent total. The solver invokes the
		// callback synchronously from one goroutine.
		prev := opt.OnIncumbent
		n := int64(0)
		opt.OnIncumbent = func(x []float64, obj float64, nodes int) {
			n++
			sp.SetAttrInt("incumbents", n)
			if prev != nil {
				prev(x, obj, nodes)
			}
		}
	}
	stats := &EvalStats{Subproblems: 1}
	t0 := time.Now()
	prob, err := BuildILP(spec, rows, hi)
	if err != nil {
		return nil, stats, err
	}
	stats.Vars = prob.LP.NumVars()
	stats.Rows = prob.LP.NumRows()
	stats.BuildTime = time.Since(t0)
	sp.SetAttrInt("subproblem", int64(sub))
	sp.SetAttrInt("vars", int64(stats.Vars))
	sp.SetAttrInt("rows", int64(stats.Rows))

	t1 := time.Now()
	res, err := ilp.SolveCtx(ctx, prob, opt)
	stats.SolveTime = time.Since(t1)
	if err != nil {
		return nil, stats, err
	}
	stats.SolverNodes = res.Nodes
	stats.LPIterations = res.LPIterations
	sp.SetAttrInt("nodes", int64(res.Nodes))
	sp.SetAttrInt("lp_iterations", int64(res.LPIterations))
	sp.SetAttrStr("status", res.Status.String())
	switch res.Status {
	case ilp.Infeasible:
		return nil, stats, ErrInfeasible
	case ilp.Unbounded:
		return nil, stats, fmt.Errorf("core: objective is unbounded (add a REPEAT bound or a cardinality constraint)")
	case ilp.ResourceLimit:
		if !(opt.AcceptIncumbent && res.HasIncumbent) {
			return nil, stats, fmt.Errorf("%w: %d branch-and-bound nodes", ErrResourceLimit, res.Nodes)
		}
		// Budget exhausted with a feasible incumbent: use it (the
		// behavior of a production solver under a time limit).
		stats.Truncated = true
	}
	pkgRows := make([]int, 0, len(rows))
	pkgMult := make([]int, 0, len(rows))
	for j, x := range res.X {
		m := int(math.Round(x))
		if m > 0 {
			pkgRows = append(pkgRows, rows[j])
			pkgMult = append(pkgMult, m)
		}
	}
	pkg, err := NewPackage(spec.Rel, pkgRows, pkgMult)
	if err != nil {
		return nil, stats, err
	}
	return pkg, stats, nil
}
