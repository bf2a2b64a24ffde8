package main

import (
	"fmt"

	"repro/paq"
)

// layerMetric is one per-layer metric of BENCHMARK.json. Every traced
// run reports every one of them; a layer a workload does not exercise
// reads 0.
type layerMetric struct {
	name, unit string
}

// layerMetrics is the fixed per-layer list. Times are self times from
// the folded span trees; "per op" figures divide by the traced query
// operations. METRICS.md maps each to the end-to-end metric and
// workload it should move.
var layerMetrics = []layerMetric{
	{"lp.iterations", "count/op"},
	{"lp.iters_per_node", "count"},
	{"lp.us_per_iter", "us"},
	{"ilp.nodes", "count/op"},
	{"ilp.ms", "ms/op"},
	{"ilp.truncated", "count"},
	{"core.build_ms", "ms/op"},
	{"core.ilp_vars", "count/op"},
	{"core.objective_ms", "ms/op"},
	{"paq.prepare_ms", "ms/op"},
	{"paq.execute_ms", "ms/op"},
	{"paq.pin_ms", "ms/op"},
	{"paq.partition_view_ms", "ms/op"},
	{"paq.pin_wait_max_ms", "ms"},
	{"paq.mutate_ms", "ms/batch"},
	{"partition.build_ms", "ms"},
	{"partition.groups", "count"},
	{"partition.splits", "count"},
	{"partition.merges", "count"},
	{"sketchrefine.prepare_ms", "ms/op"},
	{"sketchrefine.sketch_ms", "ms/op"},
	{"sketchrefine.refine_ms", "ms/op"},
	{"sketchrefine.merge_ms", "ms/op"},
	{"sketchrefine.subproblems", "count/op"},
	{"sketchrefine.backtracks", "count"},
	{"sketchrefine.false_infeasible", "count"},
	{"engine.solve_ms", "ms/op"},
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.cache_lookups", "count"},
	{"engine.invalidations", "count"},
	{"server.admission_wait_ms", "ms/op"},
	{"server.rejected", "count"},
	{"server.deadline_expired", "count"},
	{"server.http_overhead_ms", "ms/op"},
	{"server.ingest_p50_ms", "ms"},
	{"server.ingest_p99_ms", "ms"},
	{"store.wal_syncs_per_append", "ratio"},
	{"store.wal_bytes_per_row", "B"},
	{"store.snapshots", "count"},
	{"obs.trace_overhead", "ratio"},
	{"obs.accounted_share", "ratio"},
	{"obs.truncated_spans", "count"},
	{"obs.untraced_ms", "ms/op"},
	{"bench.client_ms", "ms/op"},
}

// layerAcc accumulates the exact counts the program reports per
// execution (Result.Stats) over the traced operations.
type layerAcc struct {
	ops, srOps                int
	nodes, iters, subproblems int
	vars                      int
	backtracks                int
	truncated                 int
	buildMS                   float64
	// ilpOps, ilpMS and ilpIters cover the executions whose ILP work
	// all ran under ilp spans (ilpSummary.exact): their ilp self time
	// less the ILP construction Result.Stats reports, and the LP
	// iterations of those spans. inexact counts the others.
	ilpOps, inexact int
	ilpMS           float64
	ilpIters        int
	// buildKnown is false where the executions' build time is not
	// reported (paqld's stats carry none): ilp.ms then includes it.
	buildKnown bool
}

func (a *layerAcc) add(method paq.Method, res *paq.Result) {
	a.ops++
	if method == paq.MethodSketchRefine {
		a.srOps++
	}
	if res == nil || res.Stats == nil {
		return
	}
	st := res.Stats
	a.nodes += st.SolverNodes
	a.iters += st.LPIterations
	a.subproblems += st.Subproblems
	a.vars += st.Vars
	a.backtracks += st.Backtracks
	a.buildMS += ms(st.BuildTime)
	if res.Truncated {
		a.truncated++
	}
	a.buildKnown = true
	a.addILP(summarizeILP(res.Trace()), ms(st.BuildTime))
}

// addILP adds one execution's ilp spans, less buildMS of construction.
func (a *layerAcc) addILP(s ilpSummary, buildMS float64) {
	if !s.exact {
		a.inexact++
		return
	}
	a.ilpOps++
	a.ilpMS += s.selfMS - buildMS
	a.ilpIters += s.iters
}

// layerValues fills the per-layer metrics from the folded spans and
// the accumulated counts; extra supplies workload-specific values
// (server, store, partition). Anything left unset reads 0.
func layerValues(f *fold, a *layerAcc, extra map[string]float64) map[string]metric {
	per := func(v float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return v / float64(n)
	}
	self := func(layer string) float64 { return per(f.selfMS[layer], a.ops) }
	srSelf := func(layer string) float64 { return per(f.selfMS[layer], a.srOps) }
	v := map[string]float64{
		"lp.iterations":            per(float64(a.iters), a.ops),
		"lp.iters_per_node":        per(float64(a.iters), a.nodes+a.subproblems),
		"ilp.nodes":                per(float64(a.nodes), a.ops),
		"ilp.ms":                   per(a.ilpMS, a.ilpOps),
		"ilp.truncated":            float64(a.truncated),
		"core.build_ms":            per(a.buildMS, a.ops),
		"core.ilp_vars":            per(float64(a.vars), a.ops),
		"core.objective_ms":        self("core.objective"),
		"paq.prepare_ms":           self("paq.prepare"),
		"paq.execute_ms":           self("paq.execute"),
		"paq.pin_ms":               self("paq.pin"),
		"paq.partition_view_ms":    self("paq.partition_view"),
		"sketchrefine.prepare_ms":  srSelf("sketchrefine.prepare"),
		"sketchrefine.sketch_ms":   srSelf("sketchrefine.sketch"),
		"sketchrefine.refine_ms":   srSelf("sketchrefine.refine"),
		"sketchrefine.merge_ms":    srSelf("sketchrefine.merge"),
		"sketchrefine.subproblems": per(float64(a.subproblems), a.srOps),
		"sketchrefine.backtracks":  float64(a.backtracks),
		"engine.solve_ms":          self("engine.solve"),
		"obs.accounted_share":      f.accounted(),
		"obs.truncated_spans":      float64(f.truncated),
		"obs.untraced_ms":          self("untraced"),
		"bench.client_ms":          self("bench.client"),
	}
	if a.ilpIters > 0 {
		// The ilp spans' time less ILP construction is the
		// branch-and-bound search and its simplex work.
		v["lp.us_per_iter"] = a.ilpMS * 1000 / float64(a.ilpIters)
	}
	for k, x := range extra {
		v[k] = x
	}
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{Value: v[m.name], Unit: m.unit, Samples: a.ops}
	}
	ilpNote := fmt.Sprintf("over the %d executions whose ILPs all ran under ilp spans (%d with a hybrid sketch or capped spans left out)", a.ilpOps, a.inexact)
	if !a.buildKnown {
		ilpNote += "; includes ILP construction, which paqld does not report"
	}
	for _, k := range []string{"ilp.ms", "lp.us_per_iter"} {
		m := out[k]
		m.Samples, m.Note = a.ilpOps, ilpNote
		out[k] = m
	}
	m := out["obs.accounted_share"]
	m.Note = "program layers' self time ÷ traced wall time (bench.client, other and untraced left out)"
	out["obs.accounted_share"] = m
	return out
}
