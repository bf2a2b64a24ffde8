package paq

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/relation"
	"repro/internal/reltest"
	"repro/internal/translate"
	"repro/internal/workload"
)

// TestSpecKeyAnonymousPredicates: specs that differ only in Desc-less
// FuncPreds — top-level or nested inside a CondCoef rendering — must get
// distinct cache keys, while the same spec always keys identically.
func TestSpecKeyAnonymousPredicates(t *testing.T) {
	rel := workload.Galaxy(50, 2)
	mkSpec := func(fn func(*relation.Relation, int) bool) *core.Spec {
		return &core.Spec{
			Rel:    rel,
			Repeat: 0,
			Constraints: []core.Constraint{{
				Coef: core.CondCoef{Pred: &relation.FuncPred{Fn: fn}, Inner: core.UnitCoef{}},
				Op:   lp.GE,
				RHS:  1,
			}},
		}
	}
	a := mkSpec(func(r *relation.Relation, row int) bool { return true })
	b := mkSpec(func(r *relation.Relation, row int) bool { return false })
	if specKey(a) == specKey(b) {
		t.Error("distinct anonymous CondCoef predicates share a cache key")
	}
	if specKey(a) != specKey(a) {
		t.Error("same spec keys differently across calls")
	}
	c := &core.Spec{Rel: rel, Repeat: 0, Base: &relation.FuncPred{Fn: func(*relation.Relation, int) bool { return true }}}
	d := &core.Spec{Rel: rel, Repeat: 0, Base: &relation.FuncPred{Fn: func(*relation.Relation, int) bool { return false }}}
	if specKey(c) == specKey(d) {
		t.Error("distinct anonymous base predicates share a cache key")
	}
}

// TestShapeKeyPoolsTemplates: the adaptive planner's shape key must
// pool executions of one query template across constants and dataset
// versions, while still separating genuinely different structures.
func TestShapeKeyPoolsTemplates(t *testing.T) {
	rel := workload.Galaxy(200, 3)
	compile := func(q string) *core.Spec {
		spec, err := translate.Compile(q, rel)
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	const tmpl = `
SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 3 AND SUM(P.redshift) <= %.3f
MAXIMIZE SUM(P.petrorad)`
	a := compile(fmt.Sprintf(tmpl, 2.5))
	b := compile(fmt.Sprintf(tmpl, 9.75)) // same template, different RHS
	if shapeKey(a) != shapeKey(b) {
		t.Errorf("same template at different constants got distinct shapes:\n%s\n%s",
			shapeKey(a), shapeKey(b))
	}
	// A version bump must not move the shape (unlike specKey).
	before := shapeKey(a)
	if err := rel.Set(0, 1, relation.F(123)); err != nil {
		t.Fatal(err)
	}
	if shapeKey(a) != before {
		t.Error("dataset version leaked into the shape key")
	}
	if specKey(a) == specKey(b) {
		t.Error("specKey lost its RHS sensitivity")
	}
	// Different structure (extra constraint) → different shape.
	c := compile(`
SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 3 AND SUM(P.redshift) <= 2.5 AND SUM(P.ra) >= 1
MAXIMIZE SUM(P.petrorad)`)
	if shapeKey(a) == shapeKey(c) {
		t.Error("different constraint structures share a shape")
	}
	// Different objective sense → different shape.
	d := compile(`
SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 3 AND SUM(P.redshift) <= 2.5
MINIMIZE SUM(P.petrorad)`)
	if shapeKey(a) == shapeKey(d) {
		t.Error("different objective senses share a shape")
	}
}

// TestVersionedCacheInvalidation: mutating the relation makes cached
// entries unreachable (version-keyed specKey) and invalidate reclaims
// exactly the stale ones, counting them. The relation is mutated behind
// the session's back so the stale entry survives until the explicit
// invalidate (the session's own mutation methods invalidate eagerly).
func TestVersionedCacheInvalidation(t *testing.T) {
	sess, err := Open(Table(workload.Galaxy(300, 11)), WithTimeLimit(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sess.Prepare(`
SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 3 AND SUM(P.redshift) <= 4
MAXIMIZE SUM(P.petrorad)`, WithMethod(MethodDirect))
	if err != nil {
		t.Fatal(err)
	}
	exec := func() *Result {
		t.Helper()
		res, err := st.Execute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	entries := func() int { return sess.CacheStats()[MethodDirect].Entries }

	exec()
	if !exec().Cached {
		t.Fatal("identical query on unchanged data must hit the cache")
	}

	// Mutate the relation: the old entry's key can never match again…
	if err := sess.rel.Delete(0); err != nil {
		t.Fatal(err)
	}
	if exec().Cached {
		t.Fatal("query after a mutation must not be served from the stale entry")
	}
	if entries() != 2 {
		t.Fatalf("cache holds %d entries, want 2 (stale + fresh)", entries())
	}

	// …and invalidate reclaims exactly the stale one.
	if dropped := sess.cache.invalidate(sess.rel); dropped != 1 {
		t.Fatalf("invalidate dropped %d entries, want 1", dropped)
	}
	if entries() != 1 {
		t.Fatalf("cache holds %d entries after invalidation, want 1", entries())
	}
	if got := sess.CacheStats()[MethodDirect].Invalidations; got != 1 {
		t.Fatalf("Invalidations = %d, want 1", got)
	}
	// The fresh entry still serves.
	if !exec().Cached {
		t.Fatal("current-version entry must survive invalidation")
	}
}

// tinySpecs compiles n distinct single-tuple queries over a small
// one-column relation.
func tinySpecs(t *testing.T, rows, n int) []*core.Spec {
	t.Helper()
	rel := relation.New("t", reltest.Schema(
		relation.Column{Name: "x", Type: relation.Float},
	))
	for i := 0; i < rows; i++ {
		reltest.Append(rel, relation.F(float64(i)))
	}
	specs := make([]*core.Spec, n)
	for i := range specs {
		spec, err := translate.Compile(fmt.Sprintf(`
SELECT PACKAGE(T) AS P FROM t T REPEAT 0
SUCH THAT COUNT(P.*) = 1 AND SUM(P.x) <= %d
MAXIMIZE SUM(P.x)`, 10+i), rel)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = spec
	}
	return specs
}

// firstRow is a trivially fast solve: a fixed single-tuple package.
func firstRow(spec *core.Spec) outcome {
	pkg, err := core.NewPackage(spec.Rel, []int{0}, []int{1})
	return outcome{pkg: pkg, stats: &core.EvalStats{Subproblems: 1}, err: err}
}

// TestConcurrentCacheEvictionUnderLoad hammers one cache from many
// goroutines with far more distinct queries than its bound, so the
// eviction path, the singleflight claim/drop path, and the hit path all
// run concurrently under -race. This is the long-lived-service
// regression test: paqld keeps one session per dataset alive across
// millions of requests, and the cache must stay bounded without
// corrupting results.
func TestConcurrentCacheEvictionUnderLoad(t *testing.T) {
	const (
		bound    = 16
		workers  = 32
		distinct = 40 * bound // force constant eviction churn
		iters    = 40
	)
	specs := tinySpecs(t, 8, distinct)
	c := newSolveCache()
	c.bound = bound
	var calls atomic.Int64

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				spec := specs[(w*31+i*7)%distinct]
				res := c.do(context.Background(), cacheKey{method: MethodDirect, spec: specKey(spec)}, spec, func() outcome {
					calls.Add(1)
					return firstRow(spec)
				})
				if res.err != nil {
					t.Errorf("worker %d iter %d: %v", w, i, res.err)
					return
				}
				if res.pkg == nil || res.pkg.Size() != 1 {
					t.Errorf("worker %d iter %d: bad package %v", w, i, res.pkg)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := c.snapshot()[MethodDirect]
	if st.Entries > bound {
		t.Errorf("cache grew to %d entries, bound is %d", st.Entries, bound)
	}
	if total := st.Hits + st.Misses; total != workers*iters {
		t.Errorf("hits+misses = %d, want %d", total, workers*iters)
	}
	if st.Evictions == 0 {
		t.Error("no evictions recorded despite distinct queries >> cache bound")
	}
	if calls.Load() != int64(st.Misses) {
		t.Errorf("solver calls %d != cache misses %d", calls.Load(), st.Misses)
	}
	t.Logf("hits=%d misses=%d evictions=%d entries=%d solves=%d",
		st.Hits, st.Misses, st.Evictions, st.Entries, calls.Load())
}

// TestEvictionDoesNotCorruptInFlightSolves pins a subtle property: an
// entry evicted while its solve is still in flight must still deliver
// the owner's result to waiters that grabbed the entry before eviction.
func TestEvictionDoesNotCorruptInFlightSolves(t *testing.T) {
	specs := tinySpecs(t, 1, 2)
	c := newSolveCache()
	c.bound = 1

	release := make(chan struct{})
	gated := func(ctx context.Context, spec *core.Spec) outcome {
		select {
		case <-release:
		case <-ctx.Done():
			return outcome{stats: &core.EvalStats{}, err: ctx.Err()}
		}
		return firstRow(spec)
	}
	done := make(chan outcome, 2)
	for i := 0; i < 2; i++ {
		go func() {
			ctx := context.Background()
			done <- c.do(ctx, cacheKey{method: MethodDirect, spec: specKey(specs[0])}, specs[0], func() outcome { return gated(ctx, specs[0]) })
		}()
	}
	// Let both goroutines attach to the same in-flight entry, then evict
	// it by solving a different query in the size-1 cache.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if res := c.do(context.Background(), cacheKey{method: MethodDirect, spec: specKey(specs[1])}, specs[1], func() outcome { return firstRow(specs[1]) }); res.err != nil {
		t.Fatalf("evicting solve failed: %v", res.err)
	}
	for i := 0; i < 2; i++ {
		res := <-done
		if res.err != nil {
			t.Fatalf("waiter %d: %v", i, res.err)
		}
		if res.pkg == nil || res.pkg.Size() != 1 {
			t.Fatalf("waiter %d: bad package", i)
		}
	}
}
