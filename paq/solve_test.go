package paq

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/workload"
)

// galaxySession opens a session over a seeded Galaxy relation with a
// shared partitioning over four attributes and the solver budgets the
// differential tests use; opts go on top.
func galaxySession(t testing.TB, n int, opts ...Option) *Session {
	t.Helper()
	base := []Option{
		WithPartitionAttrs("ra", "dec", "redshift", "petrorad"),
		WithNodeLimit(50000),
		WithGap(1e-4),
		WithTimeLimit(20 * time.Second),
	}
	s, err := Open(Table(workload.Galaxy(n, 31)), append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sweep prepares a deterministic parameter-sweep query stream with
// method m.
func sweep(t testing.TB, s *Session, m Method, queries int) []*Stmt {
	t.Helper()
	stmts := make([]*Stmt, 0, queries)
	for i := 0; i < queries; i++ {
		card := 3 + i%4
		bound := 0.8*float64(card) + 0.1*float64(i)
		st, err := s.Prepare(fmt.Sprintf(`
SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = %d AND SUM(P.redshift) <= %.3f
MAXIMIZE SUM(P.petrorad)`, card, bound), WithMethod(m))
		if err != nil {
			t.Fatal(err)
		}
		stmts = append(stmts, st)
	}
	return stmts
}

// TestBatchWorkersDifferential is the query half of the differential
// suite: the same batch over the same shared partitioning must yield
// identical objective values (and identical failure verdicts) for
// WithWorkers ∈ {1, 4, GOMAXPROCS} — parallelism may only change the
// wall clock, never the answers.
func TestBatchWorkersDifferential(t *testing.T) {
	base := galaxySession(t, 1500)
	type verdict struct {
		obj  float64
		fail string
	}
	var want []verdict
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		sess, err := base.Clone(WithWorkers(workers)) // shares the partitioning
		if err != nil {
			t.Fatal(err)
		}
		results := sess.ExecuteBatch(context.Background(), sweep(t, sess, MethodSketchRefine, 10))
		got := make([]verdict, len(results))
		for i, r := range results {
			if r.Err != nil {
				got[i] = verdict{fail: r.Err.Error()}
				continue
			}
			got[i] = verdict{obj: r.Objective}
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("workers=%d query %d: %+v, want %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestDirectBatchDifferential repeats the differential check for DIRECT,
// whose branch-and-bound search must likewise be untouched by batch
// concurrency.
func TestDirectBatchDifferential(t *testing.T) {
	base := galaxySession(t, 600)
	var want []float64
	for _, workers := range []int{1, runtime.GOMAXPROCS(0), 4} {
		sess, err := base.Clone(WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		results := sess.ExecuteBatch(context.Background(), sweep(t, sess, MethodDirect, 6))
		got := make([]float64, len(results))
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d query %d: %v", workers, i, r.Err)
			}
			got[i] = r.Objective
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("workers=%d query %d: objective %g, want %g", workers, i, got[i], want[i])
			}
		}
	}
}

// TestNaiveAgreesWithDirect exercises the third method: on a small
// exact-cardinality query both NAIVE enumeration and DIRECT's ILP must
// reach the same optimal objective.
func TestNaiveAgreesWithDirect(t *testing.T) {
	sess, err := Open(Table(workload.Galaxy(60, 8)))
	if err != nil {
		t.Fatal(err)
	}
	const q = `
SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 3 AND SUM(P.redshift) <= 2.5
MAXIMIZE SUM(P.petrorad)`
	run := func(m Method) *Result {
		st, err := sess.Prepare(q, WithMethod(m))
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Execute(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		return res
	}
	dir, nai := run(MethodDirect), run(MethodNaive)
	if math.Abs(dir.Objective-nai.Objective) > 1e-6*(1+math.Abs(dir.Objective)) {
		t.Errorf("naive objective %g, direct %g", nai.Objective, dir.Objective)
	}
}

// TestBatchCache: duplicate statements in one batch are solved once and
// served from the solution cache afterwards.
func TestBatchCache(t *testing.T) {
	sess := galaxySession(t, 800, WithWorkers(4))
	stmts := sweep(t, sess, MethodSketchRefine, 4)
	batch := append(append([]*Stmt{}, stmts...), stmts...) // every query twice
	results := sess.ExecuteBatch(context.Background(), batch)
	if got, want := sess.CacheStats()[MethodSketchRefine].Entries, len(stmts); got != want {
		t.Errorf("cache holds %d entries, want %d", got, want)
	}
	fresh := 0
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if !r.Cached {
			fresh++
		}
	}
	if fresh != len(stmts) {
		t.Errorf("%d fresh solves, want %d (duplicates must hit the cache)", fresh, len(stmts))
	}
	for i, r := range results {
		j := (i + len(stmts)) % len(batch)
		if r.Objective != results[j].Objective {
			t.Errorf("query %d and its duplicate disagree: %g vs %g", i, r.Objective, results[j].Objective)
		}
	}
}

// TestResourceLimitNotCached: solver-budget failures depend on wall
// clock and machine load, so they must never be retained — a later
// execution of the same statement must retry (and here, with the budget
// unchanged, fail afresh rather than serve a cached verdict).
func TestResourceLimitNotCached(t *testing.T) {
	sess := galaxySession(t, 800, WithNodeLimit(1))
	st := sweep(t, sess, MethodDirect, 1)[0]
	if _, err := st.Execute(context.Background()); !errors.Is(err, ErrBudget) {
		t.Fatalf("error %v, want ErrBudget", err)
	}
	if n := sess.CacheStats()[MethodDirect].Entries; n != 0 {
		t.Errorf("resource-limit failure was cached (%d entries)", n)
	}
	if _, err := st.Execute(context.Background()); !errors.Is(err, ErrBudget) {
		t.Fatalf("retry error %v, want ErrBudget", err)
	}
	if cs := sess.CacheStats()[MethodDirect]; cs.Hits != 0 || cs.Misses != 2 {
		t.Errorf("retry of a non-definitive failure was served from cache: %+v", cs)
	}
}

// TestCacheHitTime: a cache hit reports Cached=true and zero Time — the
// solve's cost was paid by the first caller, and summing Result.Time
// across a batch must not double-count it.
func TestCacheHitTime(t *testing.T) {
	sess := galaxySession(t, 800)
	st := sweep(t, sess, MethodSketchRefine, 1)[0]
	first, err := st.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first solve reported as cached")
	}
	hit, err := st.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.Time != 0 {
		t.Errorf("cache hit: Cached=%v Time=%v, want true and 0", hit.Cached, hit.Time)
	}
	if hit.Objective != first.Objective {
		t.Errorf("cache hit objective %g, want %g", hit.Objective, first.Objective)
	}
}

// TestNaiveTimeoutKeepsIncumbent: when the naive enumeration hits its
// time limit with a feasible package already found, the execution
// returns that package (AcceptIncumbent behavior) instead of dropping
// it, marked Truncated and never cached.
func TestNaiveTimeoutKeepsIncumbent(t *testing.T) {
	sess, err := Open(Table(workload.Galaxy(3000, 4)), WithTimeLimit(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sess.Prepare(`
SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 4 AND SUM(P.redshift) <= 10
MAXIMIZE SUM(P.petrorad)`, WithMethod(MethodNaive))
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Execute(context.Background())
	if err != nil {
		t.Fatalf("timed-out naive run with an incumbent returned error %v", err)
	}
	ok, err := res.Package().IsFeasible(st.spec)
	if err != nil || !ok {
		t.Errorf("incumbent package infeasible (%v)", err)
	}
	if !res.Truncated {
		t.Error("timed-out incumbent not marked Truncated")
	}
	if n := sess.CacheStats()[MethodNaive].Entries; n != 0 {
		t.Errorf("budget-truncated result was cached (%d entries)", n)
	}
}

// TestSeededConcurrentBatch: a shared seed must be safe for concurrent
// executions (each gets a private generator; this test fails under
// -race if any shared mutable state sneaks back into the shuffle path).
func TestSeededConcurrentBatch(t *testing.T) {
	// WithoutCache forces every statement through a real solve.
	sess := galaxySession(t, 800, WithSeed(9), WithWorkers(4), WithoutCache())
	for i, r := range sess.ExecuteBatch(context.Background(), sweep(t, sess, MethodSketchRefine, 8)) {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
	}
}

// TestRacedRefineOrders: racing several seeded refinement orders must
// still return a feasible package (any order is a valid SketchRefine
// run), and the racer goroutines must all be gone when Execute returns.
func TestRacedRefineOrders(t *testing.T) {
	sess := galaxySession(t, 1200, WithRacers(4))
	stmts := sweep(t, sess, MethodSketchRefine, 3)
	before := runtime.NumGoroutine()
	for i, st := range stmts {
		res, err := st.Execute(context.Background())
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		ok, err := res.Package().IsFeasible(st.spec)
		if err != nil || !ok {
			t.Errorf("query %d: raced package infeasible (%v)", i, err)
		}
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines asserts the goroutine count settles back to the
// baseline (canceled losers must exit, not linger).
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d now vs %d before", runtime.NumGoroutine(), baseline)
}

// TestCancellationMidSolve cancels an execution while the ILP search is
// running: Execute must return promptly with the context's error, no
// goroutines may leak, and the aborted result must not be cached.
func TestCancellationMidSolve(t *testing.T) {
	sess := galaxySession(t, 2500, WithNodeLimit(1<<30), WithRacers(3))
	st := sweep(t, sess, MethodSketchRefine, 1)[0]
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := st.Execute(ctx)
		done <- err
	}()
	time.Sleep(15 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		// The solve may legitimately have finished before the cancel
		// landed; only a non-context error is a failure.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("unexpected error: %v", err)
		}
		if n := sess.CacheStats()[MethodSketchRefine].Entries; err != nil && n != 0 {
			t.Errorf("canceled result was cached (%d entries)", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not stop the solve within 10s")
	}
	waitForGoroutines(t, before)
}

// TestPreCanceledContext: a context canceled before the call must fail
// fast with context.Canceled under every ILP-based method.
func TestPreCanceledContext(t *testing.T) {
	sess := galaxySession(t, 400)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []Method{MethodDirect, MethodSketchRefine} {
		if _, err := sweep(t, sess, m, 1)[0].Execute(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v, want context.Canceled", m, err)
		}
	}
}

// TestDeadlineExceeded: an already-expired deadline surfaces as
// context.DeadlineExceeded (and ErrTimeout) through the whole stack.
func TestDeadlineExceeded(t *testing.T) {
	sess := galaxySession(t, 400, WithNodeLimit(1<<30))
	st := sweep(t, sess, MethodDirect, 1)[0]
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	_, err := st.Execute(ctx)
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, ErrTimeout) {
		t.Errorf("error %v, want context.DeadlineExceeded tagged ErrTimeout", err)
	}
}

// TestConcurrentEnginesSharedPartitioning drives many concurrent batches
// against ONE session and ONE partitioning — the -race configuration
// that guards the "shared partitioning is read-only" contract.
func TestConcurrentEnginesSharedPartitioning(t *testing.T) {
	sess := galaxySession(t, 1000, WithWorkers(4))
	stmts := sweep(t, sess, MethodSketchRefine, 6)
	want := sess.ExecuteBatch(context.Background(), stmts)
	done := make(chan []*Result, 3)
	for g := 0; g < 3; g++ {
		go func() {
			done <- sess.ExecuteBatch(context.Background(), stmts)
		}()
	}
	for g := 0; g < 3; g++ {
		got := <-done
		for i := range want {
			if (want[i].Err == nil) != (got[i].Err == nil) {
				t.Errorf("concurrent batch query %d: error status diverged", i)
				continue
			}
			if want[i].Err == nil && want[i].Objective != got[i].Objective {
				t.Errorf("concurrent batch query %d: objective %g vs %g", i, got[i].Objective, want[i].Objective)
			}
		}
	}
}

// BenchmarkExecuteBatch measures batch execution over one shared
// partitioning at several worker-pool sizes. Statements are independent
// SketchRefine solves, so the speedup over workers=1 should track the
// core count until the solver saturates memory bandwidth.
func BenchmarkExecuteBatch(b *testing.B) {
	base, err := Open(Table(workload.Galaxy(4000, 17)),
		WithPartitionAttrs("ra", "dec", "redshift", "petrorad"),
		WithNodeLimit(50000), WithGap(1e-4),
		WithoutCache(), // measure solves, not cache hits
		WithoutAdvisor(),
		WithWarmPartitioning())
	if err != nil {
		b.Fatal(err)
	}
	stmts := make([]*Stmt, 0, 16)
	for i := 0; i < 16; i++ {
		card := 3 + i%5
		st, err := base.Prepare(fmt.Sprintf(`
SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = %d AND SUM(P.redshift) <= %.3f
MAXIMIZE SUM(P.petrorad)`, card, 0.8*float64(card)+0.05*float64(i)), WithMethod(MethodSketchRefine))
		if err != nil {
			b.Fatal(err)
		}
		stmts = append(stmts, st)
	}
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sess, err := base.Clone(WithWorkers(workers))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				for qi, r := range sess.ExecuteBatch(context.Background(), stmts) {
					if r.Err != nil {
						b.Fatalf("query %d: %v", qi, r.Err)
					}
				}
			}
		})
	}
}
