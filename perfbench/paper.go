package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/paq"
)

// paperSize fixes the paper workload's inputs. The Figures 5–6
// protocol runs DIRECT and SketchRefine over the same rows; DIRECT's
// branch-and-bound time depends far more on the data than on its size,
// so one large instance would make every seed a different experiment.
// Many small independent instances (seeded from --seed) average that
// out, and per-key medians over them keep the figures steady.
type paperSize struct {
	instances      int
	galaxyN, tpchN int
	params         solveParams
	// setups is how many times the sessions of every instance are
	// opened (setup_s is the median); the last set-up is measured.
	setups int
	// minRounds is the least number of rounds over the instances. A
	// round's first solves run on a cold process and are slower; with
	// one round on some seeds and two on others, that alone moved
	// query_geomean_ms by 15% between seeds.
	minRounds int
}

func paperSizes(cfg runConfig) paperSize {
	if cfg.tiny {
		return paperSize{instances: 2, galaxyN: 200, tpchN: 400, setups: 2, minRounds: 1,
			params: solveParams{nodes: 50000, wall: 10 * time.Minute}}
	}
	return paperSize{instances: 32, galaxyN: 600, tpchN: 1200, setups: 11, minRounds: 2,
		params: solveParams{nodes: 50000, wall: 10 * time.Minute}}
}

// runPaper is the paper workload: per instance, a DIRECT pass and a
// SketchRefine pass over the 7 Galaxy and 7 TPC-H queries (each TPC-H
// query on its Figure-3 subset table), cache off, τ = 10%, one client,
// closed loop. Rounds over all instances repeat until --seconds pass,
// at least sz.minRounds times; the last round may stop part way.
func runPaper(ctx context.Context, cfg runConfig) (*outcome, error) {
	sz := paperSizes(cfg)
	o := newOutcome(cfg.trace)
	o.sizes["instances"] = sz.instances
	o.sizes["galaxy_rows"] = sz.galaxyN
	o.sizes["tpch_rows"] = sz.tpchN
	o.sizes["node_budget"] = sz.params.nodes

	insts, setups, err := paperInstances(o.rec, cfg, sz)
	if err != nil {
		return nil, err
	}
	builds, groups := 0, 0
	buildMS := 0.0
	for _, inst := range insts {
		nb, bm, ng := inst.partitionStats()
		builds, buildMS, groups = builds+nb, buildMS+bm, groups+ng
	}
	o.e2e["setup_s"] = metric{Value: median(setups), Unit: "s", Samples: len(setups),
		Note: fmt.Sprintf("median of %d set-ups, each opening the sessions of all %d instances (partition builds included)", len(setups), sz.instances)}

	b := newSolveBench(o)
	end := deadline(cfg.seconds)
	methods := []paq.Method{paq.MethodDirect, paq.MethodSketchRefine}
	rounds := 0
measure:
	for rounds < sz.minRounds || time.Now().Before(end) {
		for k, inst := range insts {
			// Past the least number of rounds, the run ends with the
			// first instance that starts after --seconds: the
			// per-operation medians need no whole rounds.
			if rounds >= sz.minRounds && !time.Now().Before(end) {
				break measure
			}
			for _, m := range methods {
				if cfg.trace {
					// Paired untraced and traced passes over the same
					// instance: their ratio is the tracing overhead.
					plain, err := b.pass(ctx, nil, k, inst, m)
					if err != nil {
						return nil, err
					}
					traced, err := b.pass(ctx, o.rec, k, inst, m)
					if err != nil {
						return nil, err
					}
					b.plainMS += plain
					b.tracedMS += traced
					continue
				}
				d, err := b.pass(ctx, nil, k, inst, m)
				if err != nil {
					return nil, err
				}
				b.passMS[m] = append(b.passMS[m], d)
			}
		}
		rounds++
	}
	o.sizes["rounds"] = rounds

	ratios := b.crossCheck(insts)
	b.referenceDetail(cfg, sz, insts)
	o.rows = b.queryRows(insts)
	what := fmt.Sprintf("medians of %d DIRECT and SketchRefine operations over %d instances, %d whole rounds", len(b.ops), sz.instances, rounds)
	queryMetrics(o, b.opMedians(), b.allSamples(), what)
	passS := func(m paq.Method) metric {
		xs := make([]float64, len(b.passMS[m]))
		for i, v := range b.passMS[m] {
			xs[i] = v / 1000
		}
		return metric{Value: median(xs), Unit: "s", Samples: len(xs)}
	}
	o.detail["direct_pass_s"] = passS(paq.MethodDirect)
	o.detail["sr_pass_s"] = passS(paq.MethodSketchRefine)
	dk := b.keyMedians(paq.MethodDirect, insts[0].sets)
	sk := b.keyMedians(paq.MethodSketchRefine, insts[0].sets)
	o.detail["direct_geomean_ms"] = metric{Value: geomean(dk), Unit: "ms", Samples: len(dk)}
	o.detail["sr_geomean_ms"] = metric{Value: geomean(sk), Unit: "ms", Samples: len(sk)}
	maxRatio := 0.0
	for _, r := range ratios {
		if r > maxRatio {
			maxRatio = r
		}
	}
	o.detail["sr_ratio_median"] = metric{Value: median(ratios), Unit: "ratio", Samples: len(ratios)}
	o.detail["sr_ratio_max"] = metric{Value: maxRatio, Unit: "ratio", Samples: len(ratios)}
	o.detail["fail_share"] = failShare(o, b.falseInf)

	if cfg.trace {
		extra := map[string]float64{
			"sketchrefine.false_infeasible": float64(b.falseInf),
			"obs.trace_overhead":            b.tracedMS / b.plainMS,
			"partition.build_ms":            buildMS / float64(max(builds, 1)),
			"partition.groups":              float64(groups) / float64(max(builds, 1)),
			"paq.pin_wait_max_ms":           pinWaitMax(insts),
		}
		o.layers = layerValues(o.rec.fold, &b.acc, extra)
	}
	return o, nil
}

// paperInstances generates the instances and opens their sessions
// sz.setups times, returning the last set-up's instances and the time
// of each set-up. Only the last set-up is traced.
func paperInstances(rec *recorder, cfg runConfig, sz paperSize) ([]*instance, []float64, error) {
	sets := make([][]*dataset, sz.instances)
	for k := range sets {
		seed := mixSeed(cfg.seed, k)
		g, err := makeDataset("galaxy", sz.galaxyN, seed)
		if err != nil {
			return nil, nil, err
		}
		t, err := makeDataset("tpch", sz.tpchN, seed)
		if err != nil {
			return nil, nil, err
		}
		sets[k] = []*dataset{g, t}
	}
	var insts []*instance
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		insts = nil // let the previous set-up's sessions go first
		runtime.GC()
		r := rec
		if i < sz.setups-1 {
			r = nil
		}
		total := 0.0
		for k := range sets {
			inst, d, err := openInstance(r, sets[k], mixSeed(cfg.seed, k), sz.params)
			if err != nil {
				return nil, nil, err
			}
			insts = append(insts, inst)
			total += d.Seconds()
		}
		setups = append(setups, total)
	}
	return insts, setups, nil
}

// referenceDetail checks DIRECT's answers against the seed's committed
// reference, when there is one, and reports how many it covered.
func (b *solveBench) referenceDetail(cfg runConfig, sz paperSize, insts []*instance) {
	if cfg.tiny || cfg.refDir == "" {
		return
	}
	ref, err := loadReference(cfg.refDir, cfg.seed)
	if err != nil {
		b.o.problem("%v", err)
		return
	}
	m := metric{Unit: "count", Note: "DIRECT answers checked against the committed reference"}
	if ref == nil {
		m.Note = fmt.Sprintf("no reference committed for seed %d: DIRECT checked by reruns and against SketchRefine only", cfg.seed)
	} else {
		m.Value = float64(b.checkReference(ref, sz, insts))
		m.Samples = int(m.Value)
	}
	b.o.detail["direct_reference_checked"] = m
}

// failShare is failed ÷ attempted operations, counting false
// infeasibility verdicts on queries the reference solves as failures.
func failShare(o *outcome, falseInf int) metric {
	v := 0.0
	if o.attempted > 0 {
		v = float64(o.failed+falseInf) / float64(o.attempted)
	}
	return metric{Value: v, Unit: "share", Samples: o.attempted,
		Note: fmt.Sprintf("%d errors + %d false infeasibility verdicts", o.failed, falseInf)}
}

// pinWaitMax is the worst snapshot-pin wait over the instances'
// sessions.
func pinWaitMax(insts []*instance) float64 {
	worst := 0.0
	for _, inst := range insts {
		for _, ss := range inst.sess {
			for _, s := range ss {
				if w := ms(s.PinStats().WaitMax); w > worst {
					worst = w
				}
			}
		}
	}
	return worst
}
