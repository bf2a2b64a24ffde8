package paq

import (
	"context"
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/naive"
	"repro/internal/partition"
	"repro/internal/sketchrefine"
)

// Solver is an evaluation strategy a test can inject in place of a
// method's built-in one (see Session.SetSolver); it is exported for
// that test seam, not for everyday use. Solve must honor ctx and be
// safe for concurrent use.
type Solver interface {
	// Solve evaluates the query and returns the chosen package.
	Solve(ctx context.Context, spec *core.Spec) (*core.Package, *core.EvalStats, error)
}

// solveOpts is what one execution varies on top of the session's
// solver budgets.
type solveOpts struct {
	// rows restricts the candidate rows (nil means every eligible row).
	rows []int
	// seed steers SketchRefine's refinement order; racers is how many
	// orders it races (0 or 1 evaluates that one order).
	seed   int64
	racers int
}

// solve evaluates spec with method m — the one place the evaluation
// method is dispatched; cached and bespoke executions both end here.
// part is the partitioning view SketchRefine refines over (ignored by
// the other methods), and hook receives improving incumbents.
func (s *Session) solve(ctx context.Context, m Method, spec *core.Spec, part *partition.Partitioning, so solveOpts, hook core.IncumbentFunc) outcome {
	t0 := time.Now()
	var o outcome
	switch m {
	case MethodNaive:
		res, err := naive.EvaluateCtx(ctx, spec, naive.Options{Timeout: s.cfg.timeLimit})
		o.stats = &core.EvalStats{Subproblems: 1, SolveTime: time.Since(t0)}
		switch {
		case err == nil:
			o.pkg = res.Package
		case errors.Is(err, naive.ErrTimeout) && ctx.Err() != nil:
			o.err = ctx.Err()
		case errors.Is(err, naive.ErrTimeout) && res != nil && res.Package != nil:
			// Options.Timeout expired with a feasible (possibly
			// suboptimal) package in hand: return it, matching the
			// AcceptIncumbent behavior of the ILP-based strategies.
			o.pkg = res.Package
			o.stats.Truncated = true
		default:
			o.err = err
		}
	case MethodSketchRefine:
		if so.rows != nil {
			part = part.Restrict(so.rows)
		}
		o.pkg, o.stats, o.err = sketchrefine.EvaluateCtx(ctx, spec, part, sketchrefine.Options{
			Solver:       s.cfg.solverOptions(),
			HybridSketch: true,
			Seed:         so.seed,
			Racers:       so.racers,
			OnIncumbent:  hook,
		})
	default: // direct
		if err := spec.Validate(); err != nil {
			o.stats, o.err = &core.EvalStats{}, err
			break
		}
		rows := spec.BaseRows()
		if so.rows != nil {
			rows = spec.FilterRows(so.rows)
		}
		o.pkg, o.stats, o.err = core.SolveRows(ctx, spec, rows, nil, s.cfg.solverOptions(), 0, hook)
	}
	o.time = time.Since(t0)
	return o
}

// solveCached answers a statement's execution through the session's
// solution cache. A method with an injected Solver bypasses the cache,
// as does a session opened WithoutCache.
func (s *Session) solveCached(ctx context.Context, st *Stmt, spec *core.Spec, part *partition.Partitioning, hook core.IncumbentFunc) outcome {
	m := st.method
	key := cacheKey{method: m, part: st.partCacheKey}
	if sv := s.cache.solver(m); sv != nil {
		return s.cache.do(ctx, key, spec, func() outcome {
			t0 := time.Now()
			pkg, stats, err := sv.Solve(ctx, spec)
			return outcome{pkg: pkg, stats: stats, err: err, time: time.Since(t0)}
		})
	}
	if !s.cfg.noCache {
		key.spec = specKey(spec)
	}
	so := solveOpts{seed: s.cfg.seed, racers: s.cfg.racers}
	return s.cache.do(ctx, key, spec, func() outcome {
		return s.solve(ctx, m, spec, part, so, hook)
	})
}
