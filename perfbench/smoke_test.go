package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestWorkloadsSmoke runs every workload at a tiny scale, untraced and
// traced: each must finish, check clean, and report every metric the
// benchmark definition names.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	def := readDef(t)
	for _, name := range []string{"paper", "serve"} {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{seed: 3, seconds: 0.5, trace: trace, tiny: true, dir: t.TempDir()}
			o, err := workloads[name](context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			o.e2e["peak_rss_mb"] = metric{Value: peakRSSMB(), Unit: "MB"}
			rec := o.record(name, cfg)
			if !rec.Correct {
				t.Fatalf("%s trace=%v: checks failed: %v", name, trace, rec.Problems)
			}
			if rec.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", name, trace, rec.Failed, rec.Attempt)
			}
			var line struct {
				Metrics map[string]struct{ Value float64 } `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(resultLine(rec)), &line); err != nil {
				t.Fatal(err)
			}
			want := def.e2e
			if trace {
				want = def.layers
			}
			for _, m := range want {
				v, ok := line.Metrics[m]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m)
				} else if !trace && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", name, m, v.Value)
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, definition names %d", name, trace, len(line.Metrics), len(want))
			}
			if trace {
				if ov := line.Metrics["obs.trace_overhead"].Value; !(ov > 0) {
					t.Errorf("%s: trace overhead %g not measured", name, ov)
				}
				// The program's layers must account for the traced
				// wall time. The benchmark's own gaps around its calls
				// and spans no layer claims must stay below 1%; the
				// rest not accounted is executions that returned no
				// span tree (an infeasibility verdict carries none).
				// On paper those are a tenth of the run at most; on
				// serve, SketchRefine's uncached false
				// infeasibility verdicts can be half of it, so serve's
				// share is reported, not held to a floor.
				f := o.rec.fold
				gap := (f.selfMS["bench.client"] + f.selfMS["other"]) / f.rootMS
				acc := line.Metrics["obs.accounted_share"].Value
				t.Logf("%s: accounted share %.3f, benchmark gap %.4f, untraced %.3f, trace overhead %.3f",
					name, acc, gap, f.selfMS["untraced"]/f.rootMS, line.Metrics["obs.trace_overhead"].Value)
				if gap > 0.01 {
					t.Errorf("%s: %.3f of the traced time is the benchmark's own or unclaimed", name, gap)
				}
				if name != "serve" && acc < 0.8 || acc > 1.0+1e-9 {
					t.Errorf("%s: the program's layers account for %.3f of the traced time (bench.client %.4f ms/op, untraced %.4f ms/op)",
						name, acc, line.Metrics["bench.client_ms"].Value, line.Metrics["obs.untraced_ms"].Value)
				}
			}
		}
	}
}

type defNames struct{ e2e, layers []string }

func readDef(t *testing.T) defNames {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	var out defNames
	for _, m := range def.EndToEnd {
		out.e2e = append(out.e2e, m.Name)
	}
	for _, m := range def.PerLayer {
		out.layers = append(out.layers, m.Name)
	}
	return out
}

// TestLayerListMatchesDefinition keeps the code's per-layer list and
// BENCHMARK.json in step.
func TestLayerListMatchesDefinition(t *testing.T) {
	def := readDef(t)
	if len(def.layers) != len(layerMetrics) {
		t.Fatalf("definition lists %d per-layer metrics, code %d", len(def.layers), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if def.layers[i] != m.name {
			t.Errorf("per-layer metric %d: definition %q, code %q", i, def.layers[i], m.name)
		}
	}
}

// TestServeMixSeeded: the serve request mix depends on the seed alone,
// so every run of a seed sends the same sequence (a faster run only
// sends more of it), and another seed sends another one.
func TestServeMixSeeded(t *testing.T) {
	ds, err := makeDataset("galaxy", 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	sz := serveSizes(runConfig{})
	keys := make([]serveKey, 20)
	draw := func(seed int64) []serveReq {
		l := &load{sz: sz, sets: []*dataset{ds, ds}, keys: keys, rng: rand.New(rand.NewSource(seed)),
			cum: zipfCDF(len(keys), sz.zipfS), dsCum: zipfCDF(2, sz.zipfS)}
		out := make([]serveReq, 500)
		for i := range out {
			out[i] = *l.next()
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	muts := 0
	for i := range a {
		if a[i].mut != b[i].mut || a[i].key != b[i].key || a[i].ds != b[i].ds || a[i].rows != b[i].rows {
			t.Fatalf("request %d differs between two draws of seed 7: %+v, %+v", i, a[i], b[i])
		}
		if a[i].mut {
			muts++
		}
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 7 and 8 drew the same sequence")
	}
	// 10% of 500 requests are mutation batches; 30–70 is within 3σ.
	if muts < 30 || muts > 70 {
		t.Errorf("%d mutation batches in 500 requests, want about 50", muts)
	}
}
