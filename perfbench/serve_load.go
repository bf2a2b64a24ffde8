package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/relation"
	"repro/internal/server"
	"repro/paq"
)

func newLoad(st *serveState, sets []*dataset, keys []serveKey, sz serveSize, seed int64, seconds float64,
	traced bool, rec *recorder) (*load, error) {
	l := &load{st: st, sets: sets, keys: keys, sz: sz, seed: seed, rec: rec, traced: traced,
		measure: time.Duration(seconds * float64(time.Second)),
		rng:     rand.New(rand.NewSource(seed)),
		cum:     zipfCDF(len(keys), sz.zipfS), dsCum: zipfCDF(len(sets), sz.zipfS),
		acked: make([]uint64, len(sets)), ackLog: make([][]ackEntry, len(sets)), v0: make([]uint64, len(sets))}
	l.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	for i, ds := range sets {
		l.v0[i] = st.srv.Dataset(ds.id).Version()
		l.acked[i] = l.v0[i]
		p, err := newRowPool(ds, sz.poolRows, mixSeed(seed, 100+i))
		if err != nil {
			return nil, err
		}
		l.pools = append(l.pools, p)
	}
	return l, nil
}

// next draws the next request of the mix. The draws depend only on the
// seed, so every run of a seed sends the same sequence, and a faster
// run only sends more of it.
func (l *load) next() *serveReq {
	r := &serveReq{}
	if l.rng.Float64() < l.sz.mutShare {
		r.mut = true
		r.ds = min(sort.SearchFloat64s(l.dsCum, l.rng.Float64()), len(l.sets)-1)
		r.rows = l.sz.batchMin + l.rng.Intn(l.sz.batchMax-l.sz.batchMin+1)
	} else {
		r.key = min(sort.SearchFloat64s(l.cum, l.rng.Float64()), len(l.keys)-1)
	}
	return r
}

// zipfCDF is the cumulative distribution of a Zipf law with exponent s
// over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cum := make([]float64, n)
	total := 0.0
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return cum
}

// run sends the request mix over one connection, closed loop: each
// request goes out as soon as the previous one returned, for the
// warm-up and then the measured time. Every latency is timed from the
// send. The server's counters are read when the warm-up ends, so the
// layer figures cover the measured part of the load.
func (l *load) run(ctx context.Context) error {
	l.start = time.Now()
	measureFrom := l.start.Add(l.sz.warmup)
	end := measureFrom.Add(l.measure)
	warm, tracedNext := true, false
	for ctx.Err() == nil {
		now := time.Now()
		if !now.Before(end) {
			break
		}
		if warm && !now.Before(measureFrom) {
			warm = false
			measureFrom = now
			if l.st.srv != nil {
				l.before = l.st.srv.Stats()
			}
		}
		r := l.next()
		r.warm = warm
		if r.mut {
			l.mutate(ctx, r)
		} else {
			if l.traced && !warm {
				r.traced, tracedNext = tracedNext, !tracedNext
			}
			l.query(ctx, r)
		}
		l.reqs = append(l.reqs, r)
	}
	l.measured = time.Since(measureFrom)
	return ctx.Err()
}

// throughput reports the requests the run completed per second after
// the warm-up, and how busy the server's solve slots were: the
// server-reported execution time of the queries over the measured time
// times the slots.
func (l *load) throughput(o *outcome) {
	queries, muts := 0, 0
	busy := 0.0
	for _, r := range l.reqs {
		switch {
		case r.warm:
		case r.mut:
			muts++
		default:
			queries++
			if r.err == "" {
				busy += r.serverMS
			}
		}
	}
	sec := l.measured.Seconds()
	o.detail["serve_rps"] = metric{Value: float64(queries+muts) / sec, Unit: "1/s", Samples: queries + muts,
		Note: fmt.Sprintf("closed loop, 1 connection, %d solve and %d ingest slots", l.sz.solveSlots, l.sz.ingestSlots)}
	o.detail["serve_query_rps"] = metric{Value: float64(queries) / sec, Unit: "1/s", Samples: queries}
	o.detail["serve_mutation_rps"] = metric{Value: float64(muts) / sec, Unit: "1/s", Samples: muts}
	o.detail["serve_solve_utilisation"] = metric{Value: busy / (ms(l.measured) * float64(l.sz.solveSlots)), Unit: "share", Samples: queries,
		Note: fmt.Sprintf("execution time ÷ (measured time × %d solve slots)", l.sz.solveSlots)}
}

// post sends one JSON request and decodes a 200 response into out.
func (l *load) post(ctx context.Context, path string, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.st.base+path, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// query sends one query request and records its outcome.
func (l *load) query(ctx context.Context, r *serveReq) {
	k := l.keys[r.key]
	di := l.dsIndex(k.ds)
	r.minVersion = l.acked[di]
	r.sent = time.Since(l.start)
	var qr server.QueryResponse
	body := server.QueryRequest{
		Dataset: k.ds.id, Query: k.ds.queries[k.qi].PaQL, Method: string(k.method),
		TimeoutMS: 30000, IncludeTuples: true, Trace: r.traced,
	}
	var err error
	rec := l.rec
	if !r.traced {
		rec = nil
	}
	rec.span("bench.http", func() {
		r.status, err = l.post(ctx, "/query", body, &qr)
	}, func() []*paq.TraceNode { return hoistPlan(qr.Trace) })
	r.done = time.Since(l.start)
	if r.traced {
		r.ilp = summarizeILP(qr.Trace)
	}
	if err != nil {
		r.err = err.Error()
		return
	}
	r.serverMS = qr.TimeMS
	if r.traced {
		r.stats = qr.Stats
	}
	r.version = qr.Version
	r.cached = qr.Cached
	r.infeasible = qr.Infeasible
	r.falseInf = qr.FalseInfeasible
	l.checked(r, &qr)
}

func (l *load) dsIndex(ds *dataset) int {
	for i, d := range l.sets {
		if d == ds {
			return i
		}
	}
	return -1
}

// mutate sends one mutation batch and records its outcome.
func (l *load) mutate(ctx context.Context, r *serveReq) {
	p := l.pools[r.ds]
	req := p.batch(r.rows)
	r.sent = time.Since(l.start)
	var mr server.MutateResponse
	var err error
	l.rec.span("bench.mutate", func() {
		r.status, err = l.post(ctx, "/datasets/"+l.sets[r.ds].id+"/rows", req, &mr)
	}, nil)
	r.done = time.Since(l.start)
	if err != nil {
		r.err = err.Error()
		return
	}
	p.own(mr.InsertedRows)
	for _, u := range req.Update {
		p.own([]int{u.Row})
	}
	r.version = mr.Version
	if mr.Version > l.acked[r.ds] {
		l.acked[r.ds] = mr.Version
	}
	l.ackLog[r.ds] = append(l.ackLog[r.ds], ackEntry{sent: r.sent, version: mr.Version})
}

// batch composes the next mutation batch: n inserts and, once the
// benchmark owns more than n rows, as many deletes and one update of
// owned rows, so the live row count stays level. Deleted and updated
// rows leave the owned set; an updated one returns once acknowledged.
func (p *rowPool) batch(n int) server.MutateRequest {
	var req server.MutateRequest
	for i := 0; i < n; i++ {
		req.Insert = append(req.Insert, p.rows[p.next%len(p.rows)])
		p.next++
	}
	if len(p.owned) > n {
		for i := 0; i < n; i++ {
			j := p.rng.Intn(len(p.owned))
			req.Delete = append(req.Delete, p.owned[j])
			p.owned = append(p.owned[:j], p.owned[j+1:]...)
		}
		j := p.rng.Intn(len(p.owned))
		req.Update = []server.UpdateRow{{Row: p.owned[j], Values: p.rows[p.next%len(p.rows)]}}
		p.owned = append(p.owned[:j], p.owned[j+1:]...)
		p.next++
	}
	return req
}

// own adds acknowledged rows (inserted, or updated and so held back by
// batch) to the owned set.
func (p *rowPool) own(rows []int) {
	p.owned = append(p.owned, rows...)
}

// checked re-checks a query response's package from its returned
// tuples; a failure is stored on the request and judged later.
func (l *load) checked(r *serveReq, qr *server.QueryResponse) {
	if qr.Infeasible {
		return
	}
	k := l.keys[r.key]
	pkg, err := tuplePackage(k.ds.rel.Schema(), qr)
	if err == nil {
		var obj float64
		obj, err = k.ds.checks[k.qi].check(pkg)
		if err == nil && !sameObjective(obj, qr.ObjValue) {
			err = fmt.Errorf("check: reported objective %.9g, tuples give %.9g", qr.ObjValue, obj)
		}
	}
	if err != nil {
		r.err = "wrong answer: " + err.Error()
		r.status = -1
	}
}

// tuplePackage rebuilds a package from a response's returned tuples.
func tuplePackage(schema relation.Schema, qr *server.QueryResponse) ([]pkgRow, error) {
	if len(qr.Tuples) != len(qr.Rows) {
		return nil, fmt.Errorf("check: %d tuples for %d package rows", len(qr.Tuples), len(qr.Rows))
	}
	out := make([]pkgRow, len(qr.Rows))
	for i, tup := range qr.Tuples {
		if len(tup) != schema.Len() {
			return nil, fmt.Errorf("check: tuple has %d values, schema %d", len(tup), schema.Len())
		}
		vals := make(map[string]float64)
		for c := 0; c < schema.Len(); c++ {
			col := schema.Col(c)
			if !col.Type.Numeric() {
				continue
			}
			v, err := strconv.ParseFloat(tup[c], 64)
			if err != nil {
				return nil, fmt.Errorf("check: column %s: %w", col.Name, err)
			}
			vals[col.Name] = v
		}
		out[i] = pkgRow{vals: vals, mult: qr.Rows[i].Mult}
	}
	return out, nil
}

// upperVersion bounds the versions a response done by t may report:
// any batch sent at or after t applied after t, so its acknowledged
// version is at least the dataset's version at t. Without such a batch
// the bound is the final version.
func (l *load) upperVersion(di int, t time.Duration, final uint64) uint64 {
	hi := final
	for _, a := range l.ackLog[di] {
		if a.sent >= t && a.version < hi {
			hi = a.version
		}
	}
	return hi
}

// judge counts the load's operations and runs the per-response checks:
// every package valid (checked when received), every 2xx response at a
// version the dataset reached — no older than the last acknowledgement
// before it was sent, no newer than the version of the first batch sent
// after it returned.
func (l *load) judge(o *outcome) {
	final := make([]uint64, len(l.sets))
	for i, ds := range l.sets {
		final[i] = l.st.srv.Dataset(ds.id).Version()
	}
	for _, r := range l.reqs {
		o.attempted++
		name := l.keys[r.key].name
		if r.mut {
			name = "mutate " + l.sets[r.ds].id
		}
		if r.status == -1 {
			o.problem("%s: %s", name, r.err)
			continue
		}
		if r.err != "" {
			o.fail(name, r.err)
			continue
		}
		if r.mut || r.infeasible {
			continue // an infeasibility verdict carries no version
		}
		di := l.dsIndex(l.keys[r.key].ds)
		if hi := l.upperVersion(di, r.done, final[di]); r.version < r.minVersion || r.version > hi || r.version < l.v0[di] {
			o.problem("%s: response at version %d, outside the versions [%d, %d] the dataset was at while it ran",
				l.keys[r.key].name, r.version, r.minVersion, hi)
		}
	}
}

// differential quiesces the load and checks the server against an
// in-process session opened over the same final rows: DIRECT answers
// must agree exactly, no SketchRefine answer may beat DIRECT's, and
// every answer must pass the checker.
func (l *load) differential(ctx context.Context, o *outcome) error {
	agree, compared := 0, 0
	for _, ds := range l.sets {
		d := l.st.srv.Dataset(ds.id)
		var final *relation.Relation
		d.Session().View(func(rel *relation.Relation) { final = rel.Subset(rel.Name(), rel.AllRows()) })
		version := d.Version()
		sess, err := paq.Open(paq.Table(final),
			paq.WithPartitionAttrs(ds.attrs...), paq.WithTau(0.10), paq.WithNodeLimit(l.sz.nodes),
			paq.WithTimeLimit(10*time.Minute), paq.WithSeed(l.seed), paq.WithRacers(1),
			paq.WithoutAdvisor(), paq.WithoutCache())
		if err != nil {
			return fmt.Errorf("differential session: %w", err)
		}
		// Quiesced answers per query: the server's SketchRefine
		// objectives and the in-process DIRECT optima.
		srObj := make(map[int]float64)
		direct := make(map[int]float64)
		for _, k := range l.keys {
			if k.ds != ds {
				continue
			}
			var qr server.QueryResponse
			body := server.QueryRequest{Dataset: ds.id, Query: ds.queries[k.qi].PaQL, Method: string(k.method),
				TimeoutMS: 30000, IncludeTuples: true}
			if _, err := l.post(ctx, "/query", body, &qr); err != nil {
				o.problem("differential %s: %v", k.name, err)
				continue
			}
			r := &serveReq{key: l.keyIndex(k.name)}
			l.checked(r, &qr)
			if r.err != "" {
				o.problem("differential %s: %s", k.name, r.err)
				continue
			}
			if !qr.Infeasible && qr.Version != version {
				o.problem("differential %s: quiesced response at version %d, dataset at %d", k.name, qr.Version, version)
			}
			stmt, err := sess.Prepare(ds.queries[k.qi].PaQL, paq.WithMethod(k.method))
			if err != nil {
				return fmt.Errorf("differential prepare: %w", err)
			}
			res, err := stmt.Execute(ctx)
			if k.method == paq.MethodDirect {
				switch {
				case err != nil || qr.Infeasible:
					o.problem("differential %s: in-process %v, server infeasible=%v", k.name, err, qr.Infeasible)
				case !res.Truncated && !qr.Truncated && !sameObjective(res.Objective, qr.ObjValue):
					o.problem("differential %s: server objective %.9g, in-process %.9g", k.name, qr.ObjValue, res.Objective)
				default:
					direct[k.qi] = res.Objective
				}
				continue
			}
			// The server's partitioning was maintained through the
			// mutations while the in-process one is fresh, so their
			// SketchRefine answers may differ; agreement is reported.
			compared++
			if err == nil && !qr.Infeasible && sameObjective(res.Objective, qr.ObjValue) ||
				err != nil && qr.Infeasible {
				agree++
			}
			if !qr.Infeasible {
				srObj[k.qi] = qr.ObjValue
			}
		}
		for qi, s := range srObj {
			if d, ok := direct[qi]; ok && ds.checks[qi].beats(s, d) {
				o.problem("differential %s/%s: SketchRefine objective %.9g beats DIRECT's %.9g", ds.id, ds.queries[qi].Name, s, d)
			}
		}
	}
	o.detail["serve_sr_agreement"] = metric{Value: float64(agree) / float64(max(compared, 1)), Unit: "share", Samples: compared,
		Note: "quiesced SketchRefine answers equal to a fresh in-process session's"}
	return nil
}

func (l *load) keyIndex(name string) int {
	for i, k := range l.keys {
		if k.name == name {
			return i
		}
	}
	return 0
}

// metrics computes the serve figures from the recorded requests and
// the server's counters before and after the load.
func (l *load) metrics(o *outcome, before, after server.StatsResponse) {
	var all, ingest, overhead, solveMS []float64
	byKey := make(map[string][]float64)
	tracedByKey := make(map[string][]float64)
	// The per-query rows pool the instances: latencies per
	// dataset/query/method and false infeasibility verdicts per query.
	lat := make(map[string][]float64)
	falseByQuery := make(map[string]int)
	falseInf := 0
	for _, r := range l.reqs {
		if r.warm {
			continue
		}
		if r.mut {
			ingest = append(ingest, r.latencyMS())
			continue
		}
		if r.err == "" {
			overhead = append(overhead, ms(r.done-r.sent)-r.serverMS)
			solveMS = append(solveMS, r.serverMS)
		}
		k := l.keys[r.key]
		q := k.ds.name + "/" + k.ds.queries[k.qi].Name
		if r.falseInf {
			falseInf++
			falseByQuery[q]++
		}
		if r.traced {
			tracedByKey[k.name] = append(tracedByKey[k.name], r.latencyMS())
			continue
		}
		all = append(all, r.latencyMS())
		byKey[k.name] = append(byKey[k.name], r.latencyMS())
		lat[q+"/"+string(k.method)] = append(lat[q+"/"+string(k.method)], r.latencyMS())
	}
	// l.sets starts with the first instance's Galaxy and TPC-H datasets.
	for _, ds := range l.sets[:2] {
		for _, q := range ds.queries {
			name := ds.name + "/" + q.Name
			d, s := lat[name+"/"+string(paq.MethodDirect)], lat[name+"/"+string(paq.MethodSketchRefine)]
			if len(d)+len(s) == 0 {
				continue
			}
			o.rows = append(o.rows, queryRow{Dataset: ds.name, Query: q.Name, DirectMS: median(d), SRMS: median(s),
				FalseInfeasible: falseByQuery[name], Samples: len(d) + len(s)})
		}
	}
	queryMetrics(o, all, all, "query requests, closed loop over one connection")
	pct := func(xs []float64, p float64, what string) metric {
		v, beyond := nearestRank(xs, p)
		note := fmt.Sprintf("%s; %d samples beyond", what, beyond)
		if beyond < minBeyond {
			note += fmt.Sprintf(" (fewer than 10: unsupported, highest supported p%g)", highestSupported(len(xs), 50, 90, 95, 99))
		}
		return metric{Value: v, Unit: "ms", Samples: len(xs), Note: note}
	}
	o.detail["serve_query_p50_ms"] = pct(all, 50, "query latency")
	o.detail["serve_query_p99_ms"] = pct(all, 99, fmt.Sprintf("query latency, limit %v", l.sz.limit))
	o.detail["serve_ingest_p50_ms"] = pct(ingest, 50, "mutation batch latency")
	o.detail["serve_ingest_p99_ms"] = pct(ingest, 99, "mutation batch latency")
	o.detail["fail_share"] = failShare(o, falseInf)
	o.detail["serve_solve_p99_ms"] = pct(solveMS, 99, "server-reported solve time")
	p99, _ := nearestRank(all, 99)
	met := 0.0
	if p99 <= ms(l.sz.limit) {
		met = 1
	}
	o.detail["serve_limit_met"] = metric{Value: met, Unit: "bool", Samples: len(all), Note: "query p99 within the latency limit"}

	if o.rec.on {
		extra := l.serverLayers(before, after, ingest, overhead, byKey, tracedByKey)
		extra["sketchrefine.false_infeasible"] = float64(falseInf)
		o.layers = layerValues(o.rec.fold, l.tracedAcc(), extra)
	}
}

// tracedAcc accumulates the exact solver counts of the traced,
// uncached responses (a cache hit carries its original solve's stats).
func (l *load) tracedAcc() *layerAcc {
	a := &layerAcc{}
	for _, r := range l.reqs {
		if r.mut || !r.traced || r.err != "" { // warm-up requests are never traced
			continue
		}
		a.ops++
		if l.keys[r.key].method == paq.MethodSketchRefine {
			a.srOps++
		}
		if st := r.stats; st != nil && !r.cached {
			a.addILP(r.ilp, 0)
			a.nodes += st.SolverNodes
			a.iters += st.LPIterations
			a.subproblems += st.Subproblems
			a.vars += st.Vars
			a.backtracks += st.Backtracks
			if st.Truncated {
				a.truncated++
			}
		}
	}
	return a
}

// serverLayers derives the server, store, partition, engine and load
// generator layer figures from counter deltas over the load.
func (l *load) serverLayers(before, after server.StatsResponse, ingest, overhead []float64,
	byKey, tracedByKey map[string][]float64) map[string]float64 {
	v := make(map[string]float64)
	queries := 0
	for _, r := range l.reqs {
		if !r.mut && !r.warm {
			queries++
		}
	}
	solveB, solveA := before.QoS["solve"], after.QoS["solve"]
	ingB, ingA := before.QoS["ingest"], after.QoS["ingest"]
	v["server.admission_wait_ms"] = (solveA.WaitMSTotal - solveB.WaitMSTotal) / float64(max(queries, 1))
	v["server.rejected"] = float64(solveA.Rejected - solveB.Rejected + ingA.Rejected - ingB.Rejected)
	v["server.deadline_expired"] = float64(solveA.DeadlineExpired - solveB.DeadlineExpired + ingA.DeadlineExpired - ingB.DeadlineExpired)
	v["server.http_overhead_ms"] = mean(overhead)
	v["server.ingest_p50_ms"], _ = nearestRank(ingest, 50)
	v["server.ingest_p99_ms"], _ = nearestRank(ingest, 99)
	var appends, syncs, walBytes, snaps, splits, merges, rows float64
	var hits, misses, inval float64
	for name, a := range after.Datasets {
		b := before.Datasets[name]
		if a.Durability != nil && b.Durability != nil {
			appends += float64(a.Durability.WALAppends - b.Durability.WALAppends)
			syncs += float64(a.Durability.WALSyncs - b.Durability.WALSyncs)
			walBytes += float64(a.Durability.WALBytes - b.Durability.WALBytes)
			snaps += float64(a.Durability.Snapshots - b.Durability.Snapshots)
		}
		splits += float64(a.Maintenance.Splits - b.Maintenance.Splits)
		merges += float64(a.Maintenance.Merges - b.Maintenance.Merges)
		rows += float64(a.Maintenance.Inserts - b.Maintenance.Inserts + a.Maintenance.Deletes - b.Maintenance.Deletes +
			a.Maintenance.Updates - b.Maintenance.Updates)
		if p := a.Pinning.MaxWaitMS; p > v["paq.pin_wait_max_ms"] {
			v["paq.pin_wait_max_ms"] = p
		}
		for m, c := range a.Caches {
			cb := b.Caches[m]
			hits += float64(c.Hits - cb.Hits)
			misses += float64(c.Misses - cb.Misses)
			inval += float64(c.Invalidations - cb.Invalidations)
		}
	}
	if appends > 0 {
		v["store.wal_syncs_per_append"] = syncs / appends
	}
	if rows > 0 {
		v["store.wal_bytes_per_row"] = walBytes / rows
	}
	v["store.snapshots"] = snaps
	v["partition.splits"] = splits
	v["partition.merges"] = merges
	v["engine.cache_lookups"] = hits + misses
	if hits+misses > 0 {
		v["engine.cache_hit_ratio"] = hits / (hits + misses)
	}
	v["engine.invalidations"] = inval
	if pi, err := l.st.srv.Dataset(l.sets[0].id).Partitioning(); err == nil {
		v["partition.groups"] = float64(pi.Groups)
		v["partition.build_ms"] = pi.BuildMS
	}
	var ratios []float64
	for name, t := range tracedByKey {
		if u := byKey[name]; len(u) > 0 && len(t) > 0 && median(u) > 0 {
			ratios = append(ratios, median(t)/median(u))
		}
	}
	v["obs.trace_overhead"] = geomean(ratios)
	v["paq.mutate_ms"] = mean(ingest)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
