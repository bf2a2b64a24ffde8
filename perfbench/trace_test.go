package main

import (
	"math"
	"testing"
	"time"

	"repro/paq"
)

func node(name string, start, dur float64, kids ...*paq.TraceNode) *paq.TraceNode {
	return &paq.TraceNode{Name: name, StartMS: start, DurationMS: dur, Children: kids}
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name string
		n    *paq.TraceNode
		want float64
	}{
		{"leaf", node("x", 0, 10), 10},
		{"disjoint", node("x", 0, 10, node("a", 1, 2), node("b", 5, 3)), 5},
		// Racing children overlap: the covered part is their union.
		{"overlap", node("x", 0, 10, node("a", 1, 4), node("b", 3, 4)), 4},
		{"nested cover", node("x", 0, 10, node("a", 0, 10), node("b", 2, 3)), 0},
		// A child reaching outside its parent is clipped to it.
		{"clipped", node("x", 5, 10, node("a", 0, 7), node("b", 14, 5)), 7},
	} {
		if got := selfTime(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: self time %g, want %g", c.name, got, c.want)
		}
	}
}

func TestFoldByLayer(t *testing.T) {
	f := newFold()
	f.add(node("bench.execute", 0, 20,
		node("execute", 1, 18,
			node("pin", 1, 1, node("partition_view", 1, 0.5)),
			node("solve", 2, 16,
				node("prepare", 2, 4),
				node("refine", 6, 12, node("refine_group", 6, 5, node("ilp", 6, 4)))),
			node("objective", 18, 1))))
	want := map[string]float64{
		"bench.client":         2,
		"paq.execute":          0,
		"paq.pin":              0.5,
		"paq.partition_view":   0.5,
		"engine.solve":         0,
		"sketchrefine.prepare": 4,
		"sketchrefine.refine":  7 + 1,
		"ilp":                  4,
		"core.objective":       1,
	}
	for layer, w := range want {
		if got := f.selfMS[layer]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s: %g ms, want %g", layer, got, w)
		}
	}
	// The program's layers explain 18 of the 20 ms; the rest is the
	// benchmark's own gap around the call.
	if got := f.accounted(); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("accounted share %g, want 0.9", got)
	}
	// A failed execution returns no tree and an unknown span name is
	// claimed by no layer: neither counts as the program's.
	f.add(node("bench.execute", 20, 5))
	f.add(node("bench.execute", 25, 5, node("mystery", 25, 5)))
	if got := f.accounted(); math.Abs(got-18.0/30) > 1e-9 {
		t.Errorf("accounted share %g, want %g", got, 18.0/30)
	}
	if f.truncated != 0 {
		t.Errorf("no span was truncated, got %d", f.truncated)
	}
}

// TestFoldFlagsDroppedChildren: a span whose children hit the tracer's
// 128-child cap keeps the dropped children's time in its own self
// time. The fold must flag it, not silently present that time as the
// span's own work.
func TestFoldFlagsDroppedChildren(t *testing.T) {
	refine := node("refine", 0, 100)
	for i := 0; i < 128; i++ {
		refine.Children = append(refine.Children, node("refine_group", float64(i)*0.5, 0.5))
	}
	refine.DroppedChildren = 40 // 40 further groups ran in [64, 100)
	f := newFold()
	f.add(refine)
	if f.truncated != 1 || f.dropped != 40 {
		t.Fatalf("truncated=%d dropped=%d, want 1 and 40", f.truncated, f.dropped)
	}
	if got := f.selfMS["sketchrefine.refine"]; math.Abs(got-100) > 1e-9 {
		t.Errorf("refine layer %g ms, want 100 (recorded children 64 + uncovered 36)", got)
	}
}

func TestFoldSkipsReplayedSpans(t *testing.T) {
	plan := node("plan", 0, 50)
	plan.Attrs = map[string]any{"replayed": true}
	f := newFold()
	f.add(node("execute", 0, 10, plan, node("solve", 1, 8)))
	if f.replayed != 1 {
		t.Errorf("replayed = %d, want 1", f.replayed)
	}
	if got := f.selfMS["paq.execute"]; math.Abs(got-2) > 1e-9 {
		t.Errorf("execute self %g, want 2: the replayed plan span predates the window", got)
	}
	if _, ok := f.selfMS["other"]; ok {
		t.Error("replayed plan span charged to a layer")
	}
}

func TestRecorderNests(t *testing.T) {
	r := newRecorder(true)
	r.span("bench.http", func() {}, func() []*paq.TraceNode { return []*paq.TraceNode{node("execute", 0, 0.001)} })
	if len(r.roots) != 1 || len(r.roots[0].Children) != 1 || r.roots[0].Children[0].Name != "execute" {
		t.Fatalf("recorded %+v", r.roots)
	}
	var off *recorder
	if d := off.span("bench.http", func() {}, nil); d < 0 {
		t.Fatal("nil recorder must still time")
	}
}

// TestHoistPlan: paqld prepares each request right before executing
// it, so the replayed plan span becomes a sibling ahead of the execute
// tree and its time is charged to paq.prepare.
func TestHoistPlan(t *testing.T) {
	plan := node("plan", 0, 2)
	plan.Attrs = map[string]any{"replayed": true}
	exec := node("execute", 0, 5, plan, node("solve", 0, 5))
	r := newRecorder(true)
	r.span("bench.http", func() { time.Sleep(10 * time.Millisecond) }, func() []*paq.TraceNode { return hoistPlan(exec) })
	f := r.fold
	if got := f.selfMS["paq.prepare"]; math.Abs(got-2) > 1e-9 {
		t.Errorf("paq.prepare %g ms, want 2", got)
	}
	if got := f.selfMS["engine.solve"]; math.Abs(got-5) > 1e-9 {
		t.Errorf("engine.solve %g ms, want 5", got)
	}
	if got := f.accounted(); math.Abs(got-1) > 1e-9 {
		t.Errorf("accounted share %g, want 1", got)
	}
}

// TestSummarizeILP: the ilp spans' self time and LP iterations are
// summed, and a tree whose ILP work partly ran elsewhere (a hybrid
// sketch, capped children) is marked inexact.
func TestSummarizeILP(t *testing.T) {
	ilp := func(start, dur float64, iters any) *paq.TraceNode {
		n := node("ilp", start, dur)
		n.Attrs = map[string]any{"lp_iterations": iters}
		return n
	}
	tree := node("execute", 0, 20,
		node("solve", 0, 20,
			node("sketch", 0, 5, ilp(0, 4, int64(30))),
			node("refine", 5, 15, node("refine_group", 5, 10, ilp(5, 6, float64(70))))))
	s := summarizeILP(tree)
	if !s.exact || s.iters != 100 || math.Abs(s.selfMS-10) > 1e-9 {
		t.Errorf("summary %+v, want exact, 100 iterations, 10 ms", s)
	}
	tree.Children[0].Children[0].Name = "hybrid_sketch"
	if s := summarizeILP(tree); s.exact {
		t.Error("a hybrid sketch builds its ILP outside the ilp spans: summary must be inexact")
	}
	capped := node("execute", 0, 5, ilp(0, 4, int64(1)))
	capped.DroppedChildren = 3
	if s := summarizeILP(capped); s.exact {
		t.Error("capped children may hide ilp spans: summary must be inexact")
	}
	var a layerAcc
	a.addILP(summarizeILP(node("execute", 0, 10, ilp(0, 8, int64(40)))), 2)
	a.addILP(summarizeILP(capped), 1)
	if a.ilpOps != 1 || a.inexact != 1 || math.Abs(a.ilpMS-6) > 1e-9 || a.ilpIters != 40 {
		t.Errorf("accumulated %+v, want one exact op of 6 ms and 40 iterations, one inexact", a)
	}
}
