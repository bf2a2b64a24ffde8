package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchDef is the part of BENCHMARK.json compare mode needs.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// detailBound is the regression bound compare mode applies to the
// workload-detail figures, which BENCHMARK.json does not list.
const detailBound = 0.10

// higherBetter lists the detail figures where larger is better.
var higherBetter = map[string]bool{"serve_sr_agreement": true, "serve_limit_met": true}

// loadRecords reads every untraced results record in dir.
func loadRecords(dir string) ([]*record, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []*record
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !r.Trace && r.Workload != "" {
			out = append(out, &r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced results records", dir)
	}
	return out, nil
}

// verdict compares one metric's parent and change runs by the
// benchmark's rule: a gain needs the change to win at least nine
// tenths of the seed-paired runs and the medians to differ by more than
// the parent's quartile spread; a regression is a median worse by more
// than the bound; a metric whose parent spread exceeds the bound is
// unresolved unless every change run beats every parent run.
type verdict struct {
	parentMed, parentQ1, parentQ3 float64
	changeMed, changeQ1, changeQ3 float64
	wins, pairs                   int
	result                        string
}

func judgeMetric(parent, change map[int64]float64, lowerBetter bool, bound float64) verdict {
	pv, cv := values(parent), values(change)
	v := verdict{parentMed: median(pv), changeMed: median(cv)}
	v.parentQ1, v.parentQ3 = quartiles(pv)
	v.changeQ1, v.changeQ3 = quartiles(cv)
	better := func(c, p float64) bool {
		if lowerBetter {
			return c < p
		}
		return c > p
	}
	for seed, p := range parent {
		if c, ok := change[seed]; ok {
			v.pairs++
			if better(c, p) {
				v.wins++
			}
		}
	}
	allBetter := len(pv) > 0 && len(cv) > 0
	for _, c := range cv {
		for _, p := range pv {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	worse := (v.changeMed - v.parentMed) / math.Abs(v.parentMed)
	if !lowerBetter {
		worse = -worse
	}
	spread := (v.parentQ3 - v.parentQ1) / math.Abs(v.parentMed)
	switch {
	case v.pairs > 0 && float64(v.wins) >= 0.9*float64(v.pairs) &&
		better(v.changeMed, v.parentMed) && math.Abs(v.changeMed-v.parentMed) > v.parentQ3-v.parentQ1:
		v.result = "better"
	case allBetter:
		v.result = "better"
	case spread > bound || math.IsNaN(spread):
		v.result = "unresolved"
	case worse > bound:
		v.result = "worse"
	default:
		v.result = "unchanged"
	}
	return v
}

func values(m map[int64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// runCompare prints, per workload and metric, both sides' medians and
// quartiles, the pairs the change won, and the verdict.
func runCompare(w io.Writer, benchFile, parentDir, changeDir string) error {
	b, err := os.ReadFile(benchFile)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(b, &def); err != nil {
		return fmt.Errorf("%s: %w", benchFile, err)
	}
	parent, err := loadRecords(parentDir)
	if err != nil {
		return err
	}
	change, err := loadRecords(changeDir)
	if err != nil {
		return err
	}
	type side map[string]map[int64]float64 // metric -> seed -> value
	group := func(recs []*record) map[string]side {
		out := make(map[string]side)
		for _, r := range recs {
			s := out[r.Workload]
			if s == nil {
				s = make(side)
				out[r.Workload] = s
			}
			for _, ms := range []map[string]metric{r.Metrics, r.Detail} {
				for k, m := range ms {
					if s[k] == nil {
						s[k] = make(map[int64]float64)
					}
					s[k][r.Seed] = m.Value
				}
			}
		}
		return out
	}
	pg, cg := group(parent), group(change)
	var names []string
	for wl := range pg {
		names = append(names, wl)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-6s %-22s %-10s %28s %28s %7s %s\n", "wkld", "metric", "kind", "parent med [q1,q3]", "change med [q1,q3]", "won", "verdict")
	for _, wl := range names {
		cs, ok := cg[wl]
		if !ok {
			fmt.Fprintf(w, "%-6s (no change runs)\n", wl)
			continue
		}
		rows := func(kind string, metrics []string, lookup func(string) (bool, float64)) {
			for _, m := range metrics {
				p, c := pg[wl][m], cs[m]
				if len(p) == 0 || len(c) == 0 {
					continue
				}
				lower, bound := lookup(m)
				v := judgeMetric(p, c, lower, bound)
				fmt.Fprintf(w, "%-6s %-22s %-10s %10.4g [%6.4g,%6.4g] %10.4g [%6.4g,%6.4g] %3d/%-3d %s\n",
					wl, m, kind, v.parentMed, v.parentQ1, v.parentQ3, v.changeMed, v.changeQ1, v.changeQ3, v.wins, v.pairs, v.result)
			}
		}
		var e2e []string
		inDef := make(map[string]bool)
		for _, e := range def.EndToEnd {
			e2e = append(e2e, e.Name)
			inDef[e.Name] = true
		}
		rows("end-to-end", e2e, func(name string) (bool, float64) {
			for _, e := range def.EndToEnd {
				if e.Name == name {
					return e.Better != "higher", e.Bound
				}
			}
			return true, detailBound
		})
		var detail []string
		for m := range pg[wl] {
			if !inDef[m] {
				detail = append(detail, m)
			}
		}
		sort.Strings(detail)
		rows("detail", detail, func(name string) (bool, float64) { return !higherBetter[name], detailBound })
	}
	return nil
}
