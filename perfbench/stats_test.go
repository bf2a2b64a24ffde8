package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct {
		p          float64
		want       float64
		wantBeyond int
	}{
		{50, 50, 50},
		{90, 90, 10},
		{99, 99, 1},
		{100, 100, 0},
		{0.5, 1, 99},
	} {
		got, beyond := nearestRank(xs, c.p)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("p%g = %g (%d beyond), want %g (%d beyond)", c.p, got, beyond, c.want, c.wantBeyond)
		}
	}
	if v, b := nearestRank(nil, 50); v != 0 || b != 0 {
		t.Errorf("empty input: %g, %d", v, b)
	}
}

func TestTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true},  // rank 90, 10 beyond
		{99, 90, false},  // rank 90, 9 beyond
		{1000, 99, true}, // rank 990, 10 beyond
		{999, 99, false}, // rank 990, 9 beyond
		{20, 50, true},   // rank 10, 10 beyond
		{19, 50, false},  // rank 10, 9 beyond
		{10, 50, false},  // rank 5, 5 beyond
		{2000, 99.9, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if got := highestSupported(1000, 50, 90, 95, 99); got != 99 {
		t.Errorf("highestSupported(1000) = %g, want 99", got)
	}
	if got := highestSupported(200, 50, 90, 95, 99); got != 95 {
		t.Errorf("highestSupported(200) = %g, want 95", got)
	}
	if got := highestSupported(15, 50, 90, 95, 99); got != 0 {
		t.Errorf("highestSupported(15) = %g, want 0", got)
	}
}

// TestQuartilesMatchPython pins the quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{5, 1, 9, 3}, 1.5, 8},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 8, 2, 2, 9.75, 4}, 2, 8},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); !near(got, 10) {
		t.Errorf("geomean(1,100) = %g, want 10", got)
	}
	if got := geomean([]float64{2, 8, 4}); !near(got, 4) {
		t.Errorf("geomean(2,8,4) = %g, want 4", got)
	}
	// A hard query 1000× slower than an easy one moves the geometric
	// mean as much as the easy one getting 1000× faster.
	a := geomean([]float64{1, 1, 1000})
	b := geomean([]float64{0.001, 1, 1})
	if !near(a*b, 1) {
		t.Errorf("geomean not scale-symmetric: %g × %g", a, b)
	}
	if got := geomean([]float64{1, 0}); got != 0 {
		t.Errorf("zero sample: %g, want 0", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("empty: %g", got)
	}
}

func TestJudgeMetric(t *testing.T) {
	parent := map[int64]float64{}
	faster := map[int64]float64{}
	same := map[int64]float64{}
	slower := map[int64]float64{}
	for s := int64(1); s <= 10; s++ {
		p := 100 + float64(s%3)
		parent[s] = p
		faster[s] = p * 0.7
		same[s] = p + 0.5*float64(s%2)
		slower[s] = p * 1.3
	}
	if v := judgeMetric(parent, faster, true, 0.1); v.result != "better" || v.wins != 10 {
		t.Errorf("faster: %+v", v)
	}
	if v := judgeMetric(parent, same, true, 0.1); v.result != "unchanged" {
		t.Errorf("same: %+v", v)
	}
	if v := judgeMetric(parent, slower, true, 0.1); v.result != "worse" {
		t.Errorf("slower: %+v", v)
	}
	noisy := map[int64]float64{1: 50, 2: 150, 3: 100, 4: 60, 5: 140}
	if v := judgeMetric(noisy, noisy, true, 0.1); v.result != "unresolved" {
		t.Errorf("noisy: %+v", v)
	}
}
