// Command benchrunner regenerates the paper's evaluation tables and
// figures (Section 5) at a configurable scale.
//
// Usage:
//
//	benchrunner -exp all
//	benchrunner -exp fig5 -galaxy 60000 -tau 0.1
//	benchrunner -exp fig1,fig3,fig9 -timeout 30s
//
// Experiments: fig1, fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig6eps,
// batch, loadgen, ingest, recover, repl, advise, qos.
// See EXPERIMENTS.md for what each reproduces and the expected shapes.
//
// -results writes every experiment's machine-readable record (p50/p95
// solve times, recovery/replay costs, warm-start speedups) as JSON —
// CI runs `-exp recover -results BENCH_results.json` and uploads the
// file as an artifact, so the perf trajectory is queryable across the
// repository's history.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		exps     = flag.String("exp", "all", "comma-separated experiments (fig1,fig3,fig4,fig5,fig6,fig7,fig8,fig9,fig6eps,batch,loadgen,ingest,recover,repl,advise,qos) or all")
		galaxyN  = flag.Int("galaxy", 30000, "Galaxy dataset size")
		tpchN    = flag.Int("tpch", 60000, "TPC-H dataset size")
		seed     = flag.Int64("seed", 1, "generator seed")
		tau      = flag.Float64("tau", 0.10, "partition size threshold fraction")
		timeout  = flag.Duration("timeout", 60*time.Second, "per-ILP solver time limit")
		maxNodes = flag.Int("maxnodes", 50000, "per-ILP branch-and-bound node budget")
		maxCard  = flag.Int("fig1card", 5, "largest package cardinality for figure 1")
		sqlCap   = flag.Duration("fig1timeout", 10*time.Second, "naive SQL formulation timeout per cardinality")
		workers  = flag.Int("workers", 0, "worker pool size for parallel partitioning and batch evaluation (0 = GOMAXPROCS)")
		batchN   = flag.Int("batchn", 24, "number of queries in the batch experiment")
		lgAddr   = flag.String("paqld", "", "loadgen: base URL of a running paqld (empty = start one in-process)")
		lgN      = flag.Int("loadn", 64, "loadgen: number of concurrent queries")
		lgObs    = flag.Bool("loadobs", true, "loadgen: run the observability checks (mid-run /metrics validation, /stats consistency, tracing-overhead gate)")
		ingestN  = flag.Int("ingestops", 1000, "ingest: interleaved insert/delete operations before the differential check")
		recoverN = flag.Int("recoverops", 1000, "recover: acknowledged mutations before the randomized crash becomes possible")
		replN    = flag.Int("replops", 400, "repl: acknowledged leader mutations before the failover")
		adviseW  = flag.Int("advisewarmup", 8, "advise: workload rounds the advisor learns over before measurement")
		adviseR  = flag.Int("adviserounds", 3, "advise: measured workload rounds")
		replF    = flag.Int("followers", 2, "repl: follower count (minimum 2)")
		qosN     = flag.Int("qossolves", 48, "qos: measured solves per phase (quiescent and saturated)")
		results  = flag.String("results", "", "write machine-readable experiment results (BENCH_results.json) to this path")
	)
	flag.Parse()

	// Ctrl-C / SIGTERM cancels the context threaded through every
	// experiment, aborting in-flight solves instead of orphaning them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	env, err := bench.NewEnv(bench.Config{
		GalaxyN:   *galaxyN,
		TPCHN:     *tpchN,
		Seed:      *seed,
		TauFrac:   *tau,
		TimeLimit: *timeout,
		MaxNodes:  *maxNodes,
		Gap:       1e-4,
		Workers:   *workers,
		Out:       os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	all := want["all"]
	run := func(name string, fn func() error) {
		if !all && !want[name] {
			return
		}
		fmt.Printf("\n==== %s ====\n", name)
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s finished in %v)\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("fig1", func() error { _, err := env.Fig1(ctx, *maxCard, *sqlCap); return err })
	run("fig3", func() error { _, err := env.Fig3(); return err })
	run("fig4", func() error { _, err := env.Fig4(); return err })
	run("fig5", func() error { _, err := env.Scalability(ctx, bench.Galaxy); return err })
	run("fig6", func() error { _, err := env.Scalability(ctx, bench.TPCH); return err })
	run("fig7", func() error { _, err := env.TauSweep(ctx, bench.Galaxy, 0.30); return err })
	run("fig8", func() error { _, err := env.TauSweep(ctx, bench.TPCH, 1.00); return err })
	run("fig9", func() error {
		if _, err := env.Coverage(ctx, bench.Galaxy); err != nil {
			return err
		}
		_, err := env.Coverage(ctx, bench.TPCH)
		return err
	})
	run("fig6eps", func() error { _, err := env.EpsilonRepair(ctx, 1.0); return err })
	run("recover", func() error {
		// Crash a durable store mid-ingest at a randomized point (torn
		// WAL tail included) and differentially verify the recovered
		// session against a never-crashed twin: version, row contents,
		// SketchRefine objectives within the quality bound, zero
		// acknowledged-mutation loss, zero warm-start repartitions.
		_, err := env.Recover(ctx, bench.RecoverConfig{Ops: *recoverN})
		return err
	})
	run("repl", func() error {
		// Leader + -followers WAL-shipped replicas under a randomized
		// mutation/solve workload with fault injection — stream cuts
		// mid-record, a leader snapshot that truncates the shipped log,
		// a follower crash-restart, and finally a leader kill with an
		// explicit promotion. Differentially verified against an
		// in-memory twin fed only by acknowledgements: zero
		// acked-mutation loss, cell-for-cell convergence, follower
		// objectives within the quality bound, lag back to zero after
		// every fault.
		_, err := env.Repl(ctx, bench.ReplConfig{Ops: *replN, Followers: *replF})
		return err
	})
	run("advise", func() error {
		// An advisor-enabled session and a fixed-heuristic twin
		// (WithoutAdvisor) evaluate the same mixed Galaxy + TPC-H
		// workload with MethodAuto. After -advisewarmup learning rounds
		// the adaptive total solve time must not exceed the fixed
		// heuristic's (within slack) with every objective inside the
		// quality bound, and a close + reopen must restore the learned
		// state: non-cold plans, zero partitioning builds on hot sets.
		_, err := env.Advise(ctx, bench.AdviseConfig{Warmup: *adviseW, Rounds: *adviseR})
		return err
	})
	run("qos", func() error {
		// Measure a steady solve stream quiescent, then again while a
		// saturating mutation stream holds the server's single ingest
		// slot and queue. Snapshot pinning must keep p95 solve latency
		// within 1.5x of the quiescent baseline, every solve must report
		// a version the dataset actually passed through, and the worst
		// snapshot-pin wait must stay inside the stall budget — "ingest
		// never blocks solves", measured.
		_, err := env.QoS(ctx, bench.QoSConfig{Solves: *qosN})
		return err
	})
	run("ingest", func() error {
		// Apply -ingestops interleaved inserts/deletes to a live Galaxy
		// session (incremental partition maintenance, zero rebuilds), then
		// differentially check every workload query against a partitioning
		// rebuilt from scratch over the same final data: objectives must
		// stay within the reported quality bound.
		_, err := env.Ingest(ctx, bench.IngestConfig{Ops: *ingestN})
		return err
	})
	run("loadgen", func() error {
		// Fire -loadn concurrent mixed queries (direct + sketchrefine,
		// feasible + infeasible) at a paqld and differentially check every
		// response against in-process executions. With -paqld set,
		// the target must have been started with matching
		// -galaxy/-tpch/-seed/-tau flags. Unless -loadobs=false, the run
		// also validates the /metrics exposition mid-burst, cross-checks
		// /stats against /metrics, and gates tracing overhead at 5% of
		// p95 (recorded under the "loadgen" experiment for -results).
		_, err := env.LoadGen(ctx, bench.LoadGenConfig{Addr: *lgAddr, N: *lgN, Obs: *lgObs})
		return err
	})
	run("batch", func() error {
		// Sequential baseline, then the configured worker pool. Each run
		// builds its own partitioning at that worker count (so the
		// partition column is measured at the same setting as the batch)
		// and shares it across the run's queries; objectives are
		// identical for every setting — only the wall clock differs.
		for _, ds := range []bench.Dataset{bench.Galaxy, bench.TPCH} {
			if _, err := env.Batch(ctx, ds, *batchN, 1); err != nil {
				return err
			}
			if *workers == 1 {
				continue // the pooled run would duplicate the baseline
			}
			if _, err := env.Batch(ctx, ds, *batchN, *workers); err != nil {
				return err
			}
		}
		return nil
	})

	if *results != "" {
		if err := env.WriteResults(*results); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner: writing results:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d experiment result(s) to %s\n", len(env.Results()), *results)
	}
}
