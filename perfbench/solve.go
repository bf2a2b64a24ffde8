package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/relation"
	"repro/paq"
)

// The paper workload runs this closed-loop harness: one
// client solving the 14 workload queries pass after pass, in process,
// through paq.Session.Prepare and Stmt.Execute.

// instance is one generated input: both datasets and a paq session per
// distinct query table.
type instance struct {
	sets  []*dataset
	sess  [][]*paq.Session // per dataset, per query
	table [][]*relation.Relation
}

// solveParams are the solver settings of a workload.
type solveParams struct {
	nodes int
	// wall is the per-ILP wall-clock limit: far above anything the
	// node budget allows, so budgets bind on node count, never on
	// machine speed.
	wall time.Duration
}

// openInstance opens the sessions of one instance, timing each
// paq.Open (which builds the partitioning eagerly), and returns the
// total set-up time.
func openInstance(rec *recorder, sets []*dataset, seed int64, sp solveParams) (*instance, time.Duration, error) {
	inst := &instance{sets: sets}
	var total time.Duration
	for _, ds := range sets {
		tables := ds.tables()
		sessions := make([]*paq.Session, len(tables))
		opened := make(map[*relation.Relation]*paq.Session)
		for i, t := range tables {
			if s, ok := opened[t]; ok {
				sessions[i] = s
				continue
			}
			var s *paq.Session
			var err error
			total += rec.span("bench.open", func() {
				s, err = paq.Open(paq.Table(t),
					paq.WithPartitionAttrs(ds.attrs...),
					paq.WithTau(0.10),
					paq.WithWarmPartitioning(),
					paq.WithoutCache(),
					paq.WithoutAdvisor(),
					paq.WithNodeLimit(sp.nodes),
					paq.WithTimeLimit(sp.wall),
					paq.WithSeed(seed),
					paq.WithRacers(1))
			}, nil)
			if err != nil {
				return nil, 0, fmt.Errorf("open %s: %w", ds.name, err)
			}
			opened[t] = s
			sessions[i] = s
		}
		inst.sess = append(inst.sess, sessions)
		inst.table = append(inst.table, tables)
	}
	return inst, total, nil
}

// partitionStats sums the partition builds of an instance's sessions.
func (inst *instance) partitionStats() (builds int, buildMS float64, groups int) {
	seen := make(map[*paq.Session]bool)
	for _, ss := range inst.sess {
		for _, s := range ss {
			if seen[s] {
				continue
			}
			seen[s] = true
			if pi, err := s.Partitioning(); err == nil {
				builds++
				buildMS += pi.BuildMS
				groups += pi.Groups
			}
		}
	}
	return builds, buildMS, groups
}

// opKey identifies one query of one instance.
type opKey struct {
	inst   int
	ds, q  int
	method paq.Method
}

// answer is the checked outcome of one execution.
type answer struct {
	obj       float64
	ok        bool // a package was returned (and passed the checker)
	infeas    bool // typed infeasibility verdict
	truncated bool
	nodes     int
	iters     int
}

// solveBench accumulates a closed-loop run.
type solveBench struct {
	o   *outcome
	acc layerAcc
	// samples holds every measured operation time (ms) per
	// dataset/query/method key, across instances and passes; ops the
	// same times per operation (one query of one instance).
	samples map[string][]float64
	ops     map[opKey][]float64
	// first is the first checked answer of each operation: the
	// reference every later pass must reproduce.
	first map[opKey]answer
	// passMS holds the wall time of each pass per method.
	passMS map[paq.Method][]float64
	// infeasRuns counts the infeasibility verdicts of each operation;
	// falseInf those of SketchRefine where DIRECT found a package.
	infeasRuns map[opKey]int
	falseInf   int
	// tracedMS and plainMS are the wall times of the paired traced and
	// untraced passes of a traced run (the tracing overhead).
	tracedMS, plainMS float64
}

func newSolveBench(o *outcome) *solveBench {
	return &solveBench{
		o:          o,
		samples:    make(map[string][]float64),
		ops:        make(map[opKey][]float64),
		first:      make(map[opKey]answer),
		passMS:     make(map[paq.Method][]float64),
		infeasRuns: make(map[opKey]int),
	}
}

// pass solves every query of an instance once with the given method.
// rec is nil for untraced passes. It returns the pass's wall time.
func (b *solveBench) pass(ctx context.Context, rec *recorder, k int, inst *instance, m paq.Method) (float64, error) {
	total := 0.0
	for di, ds := range inst.sets {
		for qi, q := range ds.queries {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			sess := inst.sess[di][qi]
			var (
				stmt    *paq.Stmt
				res     *paq.Result
				prepErr error
				err     error
			)
			d := rec.span("bench.prepare", func() {
				stmt, prepErr = sess.Prepare(q.PaQL, paq.WithMethod(m))
			}, nil)
			if prepErr != nil {
				return 0, fmt.Errorf("prepare %s/%s: %w", ds.name, q.Name, prepErr)
			}
			var opts []paq.ExecOption
			if rec != nil {
				opts = append(opts, paq.WithTrace())
			}
			d += rec.span("bench.execute", func() {
				res, err = stmt.Execute(ctx, opts...)
			}, func() []*paq.TraceNode {
				if res == nil {
					return nil
				}
				return []*paq.TraceNode{res.Trace()}
			})
			opMS := ms(d)
			total += opMS
			key := keyOf(ds.name, q.Name, string(m))
			b.samples[key] = append(b.samples[key], opMS)
			ok := opKey{k, di, qi, m}
			b.ops[ok] = append(b.ops[ok], opMS)
			b.o.attempted++
			if rec != nil {
				b.acc.add(m, res)
			}
			b.judge(ok, ds, qi, inst.table[di][qi], res, err)
		}
	}
	return total, nil
}

// judge checks one execution and compares it with the operation's
// reference answer.
func (b *solveBench) judge(key opKey, ds *dataset, qi int, table *relation.Relation, res *paq.Result, err error) {
	name := fmt.Sprintf("instance %d %s/%s %s", key.inst, ds.name, ds.queries[qi].Name, key.method)
	var a answer
	switch {
	case err == nil:
		obj, cerr := checkResult(ds.checks[qi], table, res)
		if cerr != nil {
			b.o.problem("%s: %v", name, cerr)
			return
		}
		a = answer{obj: obj, ok: true, truncated: res.Truncated}
		if res.Stats != nil {
			a.nodes, a.iters = res.Stats.SolverNodes, res.Stats.LPIterations
		}
	case errors.Is(err, paq.ErrInfeasible):
		a = answer{infeas: true}
		b.infeasRuns[key]++
	default:
		b.o.fail(name, err.Error())
		return
	}
	ref, seen := b.first[key]
	if !seen {
		b.first[key] = a
		return
	}
	// Budgets bind on node count and refinement is seeded, so a rerun
	// must reproduce the reference exactly.
	if ref.ok != a.ok || ref.infeas != a.infeas || (a.ok && !sameObjective(ref.obj, a.obj)) {
		b.o.problem("%s: answer changed between passes (%+v, then %+v)", name, ref, a)
	}
}

// crossCheck compares SketchRefine with DIRECT per instance query: no
// SketchRefine package may beat DIRECT's (untruncated) optimum, DIRECT
// may not call a query infeasible that SketchRefine solved, and a
// SketchRefine infeasibility where DIRECT found a package is a false
// infeasibility. It returns the approximation ratios.
func (b *solveBench) crossCheck(insts []*instance) []float64 {
	var ratios []float64
	for k, inst := range insts {
		for di, ds := range inst.sets {
			for qi := range ds.queries {
				d, okD := b.first[opKey{k, di, qi, paq.MethodDirect}]
				s, okS := b.first[opKey{k, di, qi, paq.MethodSketchRefine}]
				if !okD || !okS {
					continue
				}
				name := fmt.Sprintf("instance %d %s/%s", k, ds.name, ds.queries[qi].Name)
				cq := ds.checks[qi]
				switch {
				case d.infeas && s.ok:
					b.o.problem("%s: DIRECT reports infeasible but SketchRefine found a valid package", name)
				case d.ok && s.infeas:
					b.falseInf += b.infeasRuns[opKey{k, di, qi, paq.MethodSketchRefine}]
				case d.ok && s.ok && !d.truncated:
					if cq.beats(s.obj, d.obj) {
						b.o.problem("%s: SketchRefine objective %.9g beats DIRECT's optimum %.9g", name, s.obj, d.obj)
					}
					ratios = append(ratios, cq.ratio(d.obj, s.obj))
				}
			}
		}
	}
	return ratios
}

// infeasTotal counts every infeasibility verdict of the run.
func (b *solveBench) infeasTotal() int {
	n := 0
	for _, c := range b.infeasRuns {
		n += c
	}
	return n
}

// keyMedians lists the per-query medians of one method.
func (b *solveBench) keyMedians(m paq.Method, sets []*dataset) []float64 {
	var out []float64
	for _, ds := range sets {
		for _, q := range ds.queries {
			if xs := b.samples[keyOf(ds.name, q.Name, string(m))]; len(xs) > 0 {
				out = append(out, median(xs))
			}
		}
	}
	return out
}

// allSamples concatenates every measured operation time.
func (b *solveBench) allSamples() []float64 {
	var out []float64
	for _, xs := range b.samples {
		out = append(out, xs...)
	}
	return out
}

// opMedians lists the median time of each operation: every operation
// counts once, however many times the run repeated it, so an instance
// whose queries happen to be fast does not weigh more for having been
// repeated more often, and a stall during one repetition moves
// nothing.
func (b *solveBench) opMedians() []float64 {
	out := make([]float64, 0, len(b.ops))
	for _, xs := range b.ops {
		out = append(out, median(xs))
	}
	return out
}

// queryMetrics fills the end-to-end query-latency metrics every
// workload reports from the per-operation medians (ops): their median
// and their geometric mean. The geometric mean weighs a fast and a
// slow query alike (halving either moves it equally); the 90th
// percentile of all samples is kept as a workload detail because it
// rests on the few slowest queries of the generated data and swings
// with the seed.
func queryMetrics(o *outcome, ops, all []float64, what string) {
	o.e2e["query_p50_ms"] = metric{Value: median(ops), Unit: "ms", Samples: len(all), Note: what}
	o.e2e["query_geomean_ms"] = metric{Value: geomean(ops), Unit: "ms", Samples: len(all), Note: what}
	p90, beyond := nearestRank(all, 90)
	note := fmt.Sprintf("%s; %d samples beyond", what, beyond)
	if beyond < minBeyond {
		note += " (fewer than 10: unsupported)"
	}
	o.detail["query_p90_ms"] = metric{Value: p90, Unit: "ms", Samples: len(all), Note: note}
}

// queryRows builds the per-query records.
func (b *solveBench) queryRows(insts []*instance) []queryRow {
	var rows []queryRow
	sets := insts[0].sets
	for di, ds := range sets {
		for qi, q := range ds.queries {
			row := queryRow{Dataset: ds.name, Query: q.Name}
			dk := keyOf(ds.name, q.Name, string(paq.MethodDirect))
			sk := keyOf(ds.name, q.Name, string(paq.MethodSketchRefine))
			row.DirectMS = median(b.samples[dk])
			row.SRMS = median(b.samples[sk])
			row.Samples = len(b.samples[dk]) + len(b.samples[sk])
			var ratios, nodes, iters []float64
			for k := range insts {
				d, okD := b.first[opKey{k, di, qi, paq.MethodDirect}]
				s, okS := b.first[opKey{k, di, qi, paq.MethodSketchRefine}]
				// The solver figures are DIRECT's where DIRECT ran,
				// else SketchRefine's.
				src := d
				if !okD {
					src = s
				}
				nodes = append(nodes, float64(src.nodes))
				iters = append(iters, float64(src.iters))
				if src.truncated {
					row.Truncated++
				}
				if okD && okS && d.ok && s.infeas {
					row.FalseInfeasible++
				}
				if okD && okS && d.ok && s.ok && !d.truncated {
					ratios = append(ratios, ds.checks[qi].ratio(d.obj, s.obj))
				}
			}
			row.Ratio = median(ratios)
			row.Nodes = int(math.Round(median(nodes)))
			row.LPIterations = int(math.Round(median(iters)))
			rows = append(rows, row)
		}
	}
	return rows
}
