package sketchrefine

import (
	"context"

	"repro/internal/core"
	"repro/internal/partition"
)

// raceResult is one racer's outcome, tagged with its lane.
type raceResult struct {
	lane  int
	pkg   *core.Package
	stats *core.EvalStats
	err   error
}

// race runs opt.Racers refinement orders concurrently and returns the
// first feasible package. Losers are canceled through the shared
// context; race returns only after every racer goroutine has exited, so
// an evaluation never leaks goroutines into the caller. When every
// order fails, the canonical lane-0 error (deterministic order) is
// returned.
func race(ctx context.Context, spec *core.Spec, part *partition.Partitioning, opt Options) (*core.Package, *core.EvalStats, error) {
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	racers := opt.Racers
	results := make(chan raceResult, racers)
	for lane := 0; lane < racers; lane++ {
		lopt := opt
		lopt.Racers = 0
		if lane > 0 {
			// Lane 0 keeps the configured order; the others shuffle with
			// distinct, reproducible seeds from base 1. Skip 0 (which
			// would mean "no shuffle") and lane 0's own seed, so no racer
			// duplicates the configured order.
			seed := 1 + int64(lane)
			for seed == 0 || seed == opt.Seed {
				seed += int64(racers)
			}
			lopt.Seed = seed
		}
		go func(lane int, lopt Options) {
			pkg, stats, err := EvaluateCtx(raceCtx, spec, part, lopt)
			results <- raceResult{lane: lane, pkg: pkg, stats: stats, err: err}
		}(lane, lopt)
	}

	// The winner's own stats are returned — not an aggregate. Folding in
	// canceled losers would misattribute their work to the package and
	// could mark a clean win Truncated (a loser's budget-limited
	// sub-solve), making the result wrongly uncacheable. On an all-fail
	// race the lanes' stats are aggregated, since they all contributed
	// to the verdict.
	agg := &core.EvalStats{}
	var winner *raceResult
	var lane0Err error
	for i := 0; i < racers; i++ {
		r := <-results
		agg.Add(r.stats)
		if r.err == nil && winner == nil {
			winner = &r
			cancel() // first feasible package wins; stop the losers
		}
		if r.lane == 0 {
			lane0Err = r.err
		}
	}
	if winner != nil {
		return winner.pkg, winner.stats, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, agg, err
	}
	return nil, agg, lane0Err
}
