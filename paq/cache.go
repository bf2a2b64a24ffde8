package paq

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/sketchrefine"
)

// CacheStats is a snapshot of one method's solution-cache counters.
type CacheStats struct {
	// Hits counts executions served from a completed or in-flight cache
	// entry (duplicate solves shared with the owner count as hits).
	Hits uint64
	// Misses counts executions that claimed a key and solved (including
	// executions with the cache off, and those an injected Solver served).
	Misses uint64
	// Evictions counts entries dropped to respect the cache bound.
	Evictions uint64
	// Invalidations counts entries dropped because their input relation
	// moved past the version they were solved at.
	Invalidations uint64
	// Entries is the current number of cached solutions.
	Entries int
}

// cacheBound is the number of solutions a session's cache retains. Each
// entry pins a package and its input relation, so an unbounded cache on
// a long-lived session serving a stream of distinct queries would grow
// without limit.
const cacheBound = 4096

// outcome is the result of one solve as the execution path sees it.
type outcome struct {
	pkg   *core.Package
	stats *core.EvalStats
	err   error
	// cached reports the outcome was served from the solution cache;
	// time is the wall-clock solve time (zero for cache hits, whose cost
	// was paid by the first caller).
	cached bool
	time   time.Duration
}

// cacheKey identifies one cached solve: the method, the partKey of the
// partitioning it refines over (SketchRefine only), and the query's
// specKey — so methods and partitionings never share entries.
type cacheKey struct {
	method Method
	part   string
	spec   string
}

// solveCache is a session's solution cache: one keyed singleflight map
// shared by every method and partitioning, with per-method counters. It
// also holds the test seam's injected solvers, which bypass it. A
// solveCache is safe for concurrent use.
type solveCache struct {
	// bound caps len(entries); when full, an arbitrary entry is evicted
	// to make room (the cache is an optimization, not a registry, so
	// approximate eviction is fine).
	bound int

	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	stats   map[Method]*CacheStats
	solvers map[Method]Solver
}

func newSolveCache() *solveCache {
	return &solveCache{
		bound:   cacheBound,
		entries: make(map[cacheKey]*cacheEntry),
		stats:   make(map[Method]*CacheStats),
	}
}

// cacheEntry is a singleflight slot: the first goroutine to claim a key
// solves and closes done; later goroutines wait on done and share res.
// spec pins the compiled query (and through it the input relation) for
// the entry's lifetime: specKey uses their addresses as identity, which
// is only sound while those addresses cannot be reused.
type cacheEntry struct {
	done chan struct{}
	res  outcome
	spec *core.Spec
	// ver is the relation version the entry was keyed (and solved) at;
	// invalidate compares it against the live version.
	ver uint64
}

// statsFor returns m's counters, creating them on first use. The caller
// holds c.mu.
func (c *solveCache) statsFor(m Method) *CacheStats {
	cs, ok := c.stats[m]
	if !ok {
		cs = &CacheStats{}
		c.stats[m] = cs
	}
	return cs
}

// drop removes one entry. The caller holds c.mu.
func (c *solveCache) drop(key cacheKey) {
	delete(c.entries, key)
	c.stats[key.method].Entries--
}

// do answers one solve through the cache. A key with an empty spec
// bypasses it: solve runs and counts as a miss for key.method.
// Otherwise identical keys are solved once and served from the cache
// afterwards, and concurrent duplicates share a single solve. The solve span (from ctx) gets a
// "cache" attribute: hit, joined (waited on another caller's in-flight
// solve), miss, or off.
//
// Only definitive outcomes are retained: a package, or a proven
// infeasibility verdict. Wall-clock-dependent failures — cancellation,
// deadline, solver resource limits — say nothing about the query, and a
// duplicate that was waiting on a solve aborted by the *owner's* context
// retries with its own.
func (c *solveCache) do(ctx context.Context, key cacheKey, spec *core.Spec, solve func() outcome) outcome {
	sp := obs.FromContext(ctx)
	if key.spec == "" {
		c.mu.Lock()
		c.statsFor(key.method).Misses++
		c.mu.Unlock()
		sp.SetAttrStr("cache", "off")
		return solve()
	}
	for {
		c.mu.Lock()
		cs := c.statsFor(key.method)
		if ent, ok := c.entries[key]; ok {
			c.mu.Unlock()
			if sp != nil {
				// Joined results carry no inner spans — the owner's trace
				// has them.
				select {
				case <-ent.done:
					sp.SetAttrStr("cache", "hit")
				default:
					sp.SetAttrStr("cache", "joined")
				}
			}
			select {
			case <-ent.done:
				r := ent.res
				if ctxErr(r.err) && ctx.Err() == nil {
					// The owning caller's solve was aborted by *its*
					// context, but this caller is still live: the entry
					// is already being dropped, so claim the key and
					// solve afresh. Other non-definitive outcomes
					// (truncated incumbents, budget failures) are shared
					// with concurrent waiters — this is the very solve
					// they were waiting on, and retrying serially would
					// be slower than having run without a cache — they
					// just aren't retained for future calls.
					continue
				}
				r.cached = true
				r.time = 0
				c.mu.Lock()
				cs.Hits++
				c.mu.Unlock()
				return r
			case <-ctx.Done():
				return outcome{err: ctx.Err()}
			}
		}
		if len(c.entries) >= c.bound {
			for k := range c.entries {
				c.drop(k)
				c.stats[k.method].Evictions++
				break
			}
		}
		ent := &cacheEntry{done: make(chan struct{}), spec: spec, ver: spec.Rel.Version()}
		c.entries[key] = ent
		cs.Entries++
		cs.Misses++
		c.mu.Unlock()
		sp.SetAttrStr("cache", "miss")

		ent.res = solve()
		if !definitive(ent.res) {
			// Drop the entry before waking waiters so their retry finds
			// the key free.
			c.mu.Lock()
			if c.entries[key] == ent {
				c.drop(key)
			}
			c.mu.Unlock()
		}
		close(ent.done)
		return ent.res
	}
}

// definitive reports whether a solve outcome is a property of the query
// itself (and hence cacheable): a non-truncated package, or an
// infeasibility verdict. Cancellation, deadlines, solver resource
// limits, and budget-truncated incumbents depend on wall clock and
// machine load — a retry could succeed or improve.
func definitive(r outcome) bool {
	if r.stats != nil && r.stats.Truncated {
		// Any truncated solve taints the outcome, success or failure: an
		// infeasibility verdict built on a budget-limited sub-solution
		// (e.g. a poor truncated sketch leading to ErrFalseInfeasible)
		// might not recur with the full budget.
		return false
	}
	if r.err != nil {
		return errors.Is(r.err, core.ErrInfeasible) || errors.Is(r.err, sketchrefine.ErrFalseInfeasible)
	}
	return true
}

// ctxErr reports whether an error is a context cancellation or deadline.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// invalidate drops every completed entry whose spec reads rel at a
// version older than rel's current one. Because specKey embeds the
// version, such entries can never be hit again; dropping them eagerly
// releases the packages they pin without flushing entries for other
// relations or for the current version. In-flight entries are left
// alone (their owner is still solving; they are keyed under the version
// the solve started at and will be dropped by the next invalidation if
// stale). It returns the number of entries dropped.
func (c *solveCache) invalidate(rel *relation.Relation) int {
	current := rel.Version()
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for key, ent := range c.entries {
		if ent.spec.Rel.Identity() != rel.Identity() || ent.ver == current {
			continue
		}
		select {
		case <-ent.done:
		default:
			continue // still solving
		}
		c.drop(key)
		c.stats[key.method].Invalidations++
		dropped++
	}
	return dropped
}

// dropPart drops every SketchRefine entry solved over the partitioning
// with the given key (the advisor evicted it).
func (c *solveCache) dropPart(partKey string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key := range c.entries {
		if key.method == MethodSketchRefine && key.part == partKey {
			c.drop(key)
		}
	}
}

// snapshot copies the per-method counters.
func (c *solveCache) snapshot() map[Method]CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[Method]CacheStats, len(c.stats))
	for m, cs := range c.stats {
		out[m] = *cs
	}
	return out
}

// solver returns the Solver injected for m, or nil.
func (c *solveCache) solver(m Method) Solver {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.solvers[m]
}

// setSolver injects a Solver for m.
func (c *solveCache) setSolver(m Method, sv Solver) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.solvers == nil {
		c.solvers = make(map[Method]Solver)
	}
	c.solvers[m] = sv
	c.statsFor(m)
}
