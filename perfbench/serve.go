package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/relation"
	"repro/internal/server"
	"repro/paq"
)

// serveSize fixes the serve workload. METRICS.md gives the measurement
// and the public sources each value is taken from.
type serveSize struct {
	// instances is how many Galaxy and TPC-H datasets the server holds,
	// each generated from its own seed: which queries are expensive
	// depends on the data, and several instances keep one seed's
	// hardest query from deciding the run.
	instances      int
	galaxyN, tpchN int
	// mutShare is the share of requests that are mutation batches.
	mutShare float64
	// zipfS is the skew of query popularity over the query keys and of
	// mutations over the datasets.
	zipfS float64
	// batchMin and batchMax bound the rows a mutation batch inserts
	// (uniform); it deletes as many and updates one. poolRows is how
	// many generated rows per dataset the inserts cycle through.
	batchMin, batchMax, poolRows int
	// solveSlots and ingestSlots are the server's QoS slots per class.
	solveSlots, ingestSlots int
	// warmup is the unmeasured start of the load.
	warmup time.Duration
	// limit is the query latency limit the p99 is held to.
	limit  time.Duration
	nodes  int
	setups int
}

func serveSizes(cfg runConfig) serveSize {
	cpus := runtime.NumCPU()
	sz := serveSize{instances: 8, galaxyN: 2000, tpchN: 4000, mutShare: 0.10, zipfS: 0.99,
		batchMin: 5, batchMax: 15, poolRows: 2000, solveSlots: cpus, ingestSlots: cpus,
		warmup: 3 * time.Second, limit: 250 * time.Millisecond, nodes: 2000, setups: 15}
	if cfg.tiny {
		sz.instances, sz.galaxyN, sz.tpchN, sz.poolRows, sz.setups, sz.warmup = 1, 1000, 2000, 200, 2, 200*time.Millisecond
	}
	return sz
}

// directKeys are the queries also sent with DIRECT: those whose DIRECT
// solve stays well under a millisecond at this size, before and after
// the mutations (the LP relaxation is integral: no branching). Q7 was
// left out because on some seeds the mutated data made its DIRECT solve
// take over 300 ms, beyond the latency limit. The combinatorially hard
// DIRECT queries are the paper workload's job.
var directKeys = map[string]bool{"galaxy/Q5": true, "tpch/Q5": true}

// serveKey is one (dataset, query, method) the load draws from.
type serveKey struct {
	ds     *dataset
	qi     int
	method paq.Method
	name   string
}

// serveReq is one request of the mix and, once done, its outcome.
type serveReq struct {
	mut    bool
	key    int // query key index
	ds     int // mutation target dataset
	rows   int // rows a mutation batch inserts
	traced bool
	warm   bool // sent in the warm-up: checked, not measured
	ilp    ilpSummary

	sent, done time.Duration // offsets from the load's start
	status     int
	serverMS   float64
	stats      *server.EvalStatsJSON
	version    uint64
	minVersion uint64 // highest version acknowledged before sending
	cached     bool
	infeasible bool
	falseInf   bool
	err        string
}

func (r *serveReq) latencyMS() float64 { return ms(r.done - r.sent) }

// serveState is one booted paqld: the datasets, the server and its
// loopback listener.
type serveState struct {
	srv     *server.Server
	httpSrv *http.Server
	base    string
	done    chan struct{}
}

// bootServe registers the durable datasets with a fresh server and
// starts serving on loopback: the set-up setup_s times.
func bootServe(sets []*dataset, dir string, seed int64, sz serveSize) (*serveState, error) {
	srv := server.New(server.Config{
		MaxInFlight: sz.solveSlots, MaxQueued: 256,
		IngestMaxInFlight: sz.ingestSlots, IngestMaxQueued: 256,
		DefaultTimeout: 30 * time.Second,
	})
	st := &serveState{srv: srv, done: make(chan struct{})}
	for _, ds := range sets {
		d, err := server.NewDataset(ds.id, ds.rel, server.DatasetConfig{
			Attrs:     ds.attrs,
			TauFrac:   0.10,
			MaxNodes:  sz.nodes,
			TimeLimit: 10 * time.Minute,
			Seed:      seed,
			Racers:    1,
			DataDir:   dir,
		})
		if err != nil {
			_ = srv.CloseDatasets()
			return nil, err
		}
		srv.Register(d)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.CloseDatasets()
		return nil, err
	}
	st.base = "http://" + ln.Addr().String()
	st.httpSrv = &http.Server{Handler: srv.Handler()}
	go func() {
		defer close(st.done)
		_ = st.httpSrv.Serve(ln)
	}()
	return st, nil
}

// stop drains the server, waits for its serving goroutine and closes
// the datasets (flushing their stores).
func (st *serveState) stop(ctx context.Context) error {
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	_ = st.srv.Shutdown(sctx)
	err := st.httpSrv.Shutdown(sctx)
	<-st.done
	if cerr := st.srv.CloseDatasets(); err == nil {
		err = cerr
	}
	return err
}

// runServe is the serve workload: paqld over loopback HTTP, durable
// datasets fsyncing the WAL before every acknowledgement (group
// commit), one client sending the seeded request mix closed loop.
func runServe(ctx context.Context, cfg runConfig) (*outcome, error) {
	sz := serveSizes(cfg)
	o := newOutcome(cfg.trace)
	o.sizes["galaxy_rows"] = sz.galaxyN
	o.sizes["tpch_rows"] = sz.tpchN
	o.sizes["connections"] = 1
	o.sizes["node_budget"] = sz.nodes
	seed := mixSeed(cfg.seed, 0)

	// Set-up, repeated: each boot gets its own store directory. The
	// datasets are regenerated per boot because a session owns (and
	// mutates) the relation it is opened over.
	var st *serveState
	var sets []*dataset
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		if st != nil {
			if err := st.stop(ctx); err != nil {
				return nil, fmt.Errorf("stop: %w", err)
			}
			st = nil
		}
		sets = nil
		for k := 0; k < sz.instances; k++ {
			for _, name := range []string{"galaxy", "tpch"} {
				n := sz.galaxyN
				if name == "tpch" {
					n = sz.tpchN
				}
				ds, err := makeDataset(name, n, mixSeed(cfg.seed, k))
				if err != nil {
					return nil, err
				}
				ds.id = fmt.Sprintf("%s%d", name, k)
				sets = append(sets, ds)
			}
		}
		runtime.GC()
		var err error
		t0 := time.Now()
		st, err = bootServe(sets, filepath.Join(cfg.dir, fmt.Sprintf("boot%d", i)), seed, sz)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { _ = st.stop(ctx) }()
	o.e2e["setup_s"] = metric{Value: median(setups), Unit: "s", Samples: len(setups),
		Note: "median of repeated boots: durable datasets, partition builds, initial snapshots, listener"}

	keys := serveKeys(sets)
	load, err := newLoad(st, sets, keys, sz, seed, cfg.seconds, cfg.trace, o.rec)
	if err != nil {
		return nil, err
	}
	if err := load.run(ctx); err != nil {
		return nil, err
	}
	after := st.srv.Stats()
	before := load.before
	load.throughput(o)

	load.judge(o)
	if err := load.differential(ctx, o); err != nil {
		return nil, err
	}
	load.metrics(o, before, after)
	return o, nil
}

// serveKeys lists the query keys in popularity order: SketchRefine
// over all 14 queries, then DIRECT over the easy ones, each rank
// repeated across the instances so that every instance draws the same
// share of the load.
func serveKeys(sets []*dataset) []serveKey {
	var keys []serveKey
	for _, m := range []paq.Method{paq.MethodSketchRefine, paq.MethodDirect} {
		for _, name := range []string{"galaxy", "tpch"} {
			for qi := 0; qi < 7; qi++ {
				for _, ds := range sets {
					if ds.name != name || qi >= len(ds.queries) {
						continue
					}
					q := ds.queries[qi]
					if m == paq.MethodDirect && !directKeys[name+"/"+q.Name] {
						continue
					}
					keys = append(keys, serveKey{ds: ds, qi: qi, method: m, name: keyOf(ds.id, q.Name, string(m))})
				}
			}
		}
	}
	return keys
}

// load is one closed-loop run against a booted server.
type load struct {
	st     *serveState
	sets   []*dataset
	keys   []serveKey
	sz     serveSize
	seed   int64
	rec    *recorder
	client *http.Client
	// measure is the measured time after the warm-up; traced makes
	// every other measured query a traced one.
	measure time.Duration
	traced  bool
	// rng draws the request mix; cum and dsCum are the Zipf laws over
	// the query keys and over the datasets.
	rng        *rand.Rand
	cum, dsCum []float64
	reqs       []*serveReq
	pools      []*rowPool

	// acked is the highest version acknowledged per dataset, and
	// ackLog every acknowledgement with its time.
	acked  []uint64
	ackLog [][]ackEntry
	start  time.Time
	v0     []uint64
	// before holds the server's counters at the end of the warm-up,
	// measured when the measured part began.
	before   server.StatsResponse
	measured time.Duration
}

type ackEntry struct {
	sent    time.Duration
	version uint64
}

// rowPool supplies rows to insert, cycling through its generated rows,
// and tracks the rows the benchmark inserted, the only ones it deletes
// or updates, so the base data every query's bounds were derived from
// stays intact.
type rowPool struct {
	rng   *rand.Rand
	rows  [][]any
	next  int
	owned []int
}

func newRowPool(ds *dataset, n int, seed int64) (*rowPool, error) {
	extra, err := makeDataset(ds.name, n, seed)
	if err != nil {
		return nil, err
	}
	p := &rowPool{rng: rand.New(rand.NewSource(seed))}
	for r := 0; r < extra.rel.Len(); r++ {
		p.rows = append(p.rows, rowValues(extra.rel, r))
	}
	return p, nil
}

// rowValues converts a row to its JSON form.
func rowValues(rel *relation.Relation, r int) []any {
	s := rel.Schema()
	out := make([]any, s.Len())
	for c := range out {
		v := rel.Value(r, c)
		switch v.Type() {
		case relation.Int:
			out[c], _ = v.Int()
		case relation.Float:
			out[c], _ = v.Float()
		default:
			out[c], _ = v.Str()
		}
	}
	return out
}
