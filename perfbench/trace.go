package main

import (
	"sort"
	"sync"
	"time"

	"repro/paq"
)

// Span trees use the program's own wire form (paq.TraceNode): the
// benchmark's spans around its calls into the layers and the span
// trees the program returns for traced executions fold with one code
// path.

// layerOf maps a span name to the layer its self time is charged to.
// Names not listed here are charged to "other", which the accounting
// reports so an unmapped span cannot vanish silently.
var layerOf = map[string]string{
	// The benchmark's own spans, around calls into the public surface.
	"bench.open":    "paq.open",
	"bench.prepare": "paq.prepare",
	"bench.execute": "bench.client",
	"bench.mutate":  "paq.mutate",
	"bench.http":    "server.http",
	// Spans the program records inside Stmt.Execute.
	"execute":        "paq.execute",
	"plan":           "paq.prepare",
	"pin":            "paq.pin",
	"partition_view": "paq.partition_view",
	"solve":          "engine.solve",
	"objective":      "core.objective",
	"prepare":        "sketchrefine.prepare",
	"sketch":         "sketchrefine.sketch",
	"hybrid_sketch":  "sketchrefine.sketch",
	"refine":         "sketchrefine.refine",
	"refine_group":   "sketchrefine.refine",
	"merge":          "sketchrefine.merge",
	"ilp":            "ilp",
}

// fold is the per-layer accounting of a set of span trees.
type fold struct {
	// selfMS is the self time charged to each layer.
	selfMS map[string]float64
	// rootMS is the summed duration of the folded roots: the wall time
	// the self times must account for.
	rootMS float64
	// truncated counts spans whose children were capped by the tracer
	// (dropped_children > 0): their self time also holds the dropped
	// children's time, so it is flagged rather than trusted.
	truncated int
	// dropped is the number of children those spans lost.
	dropped int
	// replayed counts spans skipped because they replay work done
	// outside the traced window (the plan span replays Prepare).
	replayed int
}

func newFold() *fold { return &fold{selfMS: make(map[string]float64)} }

// add folds one tree.
func (f *fold) add(root *paq.TraceNode) {
	if root == nil {
		return
	}
	f.rootMS += root.DurationMS
	f.walk(root)
}

func (f *fold) walk(n *paq.TraceNode) {
	if n.DroppedChildren > 0 {
		f.truncated++
		f.dropped += n.DroppedChildren
	}
	layer, ok := layerOf[n.Name]
	switch {
	case !ok:
		layer = "other"
	case len(n.Children) == 0 && (n.Name == "bench.execute" || n.Name == "bench.http"):
		// An execution that failed returns no span tree: its time
		// cannot be attributed to a layer and is reported as such.
		layer = "untraced"
	}
	f.selfMS[layer] += selfTime(n)
	for _, c := range n.Children {
		if replayed(c) {
			f.replayed++
			continue
		}
		f.walk(c)
	}
}

// replayed reports a span that stands for time spent before its
// parent started (the program marks it with replayed=true).
func replayed(n *paq.TraceNode) bool {
	v, ok := n.Attrs["replayed"].(bool)
	return ok && v
}

// selfTime is a span's duration minus the part of its interval that
// its children cover. Children may overlap (racing refinement orders,
// parallel subproblems), so the covered part is the length of the
// union of their intervals, clipped to the parent's.
func selfTime(n *paq.TraceNode) float64 {
	lo, hi := n.StartMS, n.StartMS+n.DurationMS
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, c := range n.Children {
		if replayed(c) {
			continue
		}
		a, b := c.StartMS, c.StartMS+c.DurationMS
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := 0.0
	curA, curB := 0.0, 0.0
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	self := n.DurationMS - covered
	if self < 0 {
		return 0
	}
	return self
}

// accounted is the share of the roots' wall time that the program's
// layers explain: the self times of every layer except the benchmark's
// own (bench.client, the gap between a benchmark span and the program
// tree under it), spans no layer claims ("other") and executions that
// returned no tree ("untraced").
func (f *fold) accounted() float64 {
	if f.rootMS == 0 {
		return 0
	}
	total := 0.0
	for layer, v := range f.selfMS {
		switch layer {
		case "bench.client", "other", "untraced":
		default:
			total += v
		}
	}
	return total / f.rootMS
}

// recorder keeps the benchmark's own spans in memory for the whole
// run; they are written out with the results when the run ends.
type recorder struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	roots []*paq.TraceNode
	// keep bounds how many root spans are retained for the results
	// file; every span is still folded.
	keep int
	fold *fold
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, t0: time.Now(), keep: 4096, fold: newFold()}
}

// span times fn as a benchmark span named name. When tracing is on and
// tree (called after the clock stops, so snapshotting the program's
// span tree is not charged to the span) returns the program's own
// trees, they become the span's children. The span's start is relative to
// the recorder's creation. A nil recorder only times fn.
func (r *recorder) span(name string, fn func(), tree func() []*paq.TraceNode) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	if r == nil || !r.on {
		return d
	}
	node := &paq.TraceNode{
		Name:       name,
		StartMS:    ms(start.Sub(r.t0)),
		DurationMS: ms(d),
	}
	if tree != nil {
		// The program's trees are relative to their own root; shift them
		// onto the benchmark's clock. The program's root began inside
		// this span, so anchoring it at the span's start is
		// conservative: the gap shows up as the benchmark's self time.
		for _, child := range tree() {
			if child != nil {
				shift(child, node.StartMS)
				node.Children = append(node.Children, child)
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fold.add(node)
	if len(r.roots) < r.keep {
		r.roots = append(r.roots, node)
	}
	return d
}

// hoistPlan lifts the plan span paqld's execution trace replays out of
// the execute tree. paqld prepares every request just before executing
// it, so the replayed span is that request's Prepare: placed before the
// execute tree (which is moved after it), it is charged to paq.prepare
// instead of vanishing as a replay.
func hoistPlan(root *paq.TraceNode) []*paq.TraceNode {
	if root == nil {
		return nil
	}
	for i, c := range root.Children {
		if c.Name != "plan" || !replayed(c) {
			continue
		}
		root.Children = append(root.Children[:i:i], root.Children[i+1:]...)
		plan := &paq.TraceNode{Name: "plan", StartMS: root.StartMS, DurationMS: c.DurationMS}
		shift(root, c.DurationMS)
		return []*paq.TraceNode{plan, root}
	}
	return []*paq.TraceNode{root}
}

func shift(n *paq.TraceNode, by float64) {
	n.StartMS += by
	for _, c := range n.Children {
		shift(c, by)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ilpSummary is what the ilp spans of one execution's span tree hold:
// their summed self time and the LP iterations they report. exact is
// false when part of the execution's ILP work ran outside them: a
// hybrid sketch builds and solves its ILP under its own span, and a
// span whose children were capped hides the ilp spans it dropped.
type ilpSummary struct {
	selfMS float64
	iters  int
	exact  bool
}

func summarizeILP(root *paq.TraceNode) ilpSummary {
	s := ilpSummary{exact: root != nil}
	var walk func(n *paq.TraceNode)
	walk = func(n *paq.TraceNode) {
		if n.DroppedChildren > 0 || n.Name == "hybrid_sketch" {
			s.exact = false
		}
		if n.Name == "ilp" {
			s.selfMS += selfTime(n)
			s.iters += attrInt(n, "lp_iterations")
		}
		for _, c := range n.Children {
			if !replayed(c) {
				walk(c)
			}
		}
	}
	if root != nil {
		walk(root)
	}
	return s
}

// attrInt reads an integer span attribute, in process (int64) or
// decoded from JSON (float64).
func attrInt(n *paq.TraceNode, key string) int {
	switch v := n.Attrs[key].(type) {
	case int64:
		return int(v)
	case int:
		return v
	case float64:
		return int(v)
	}
	return 0
}
