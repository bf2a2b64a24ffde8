package lp

import (
	"fmt"
	"math/rand"
	"testing"
)

// nodeProblem builds the LP relaxation of a package query as branch and
// bound meets it: n tuples with [0,1] bounds, a COUNT(*) = k row, and
// m−1 SUM rows alternating ≤ and ≥ around k times the attribute mean.
// A share fixed of the columns is fixed, most at 0 and at most k/4 at 1, the
// way branching and reduced-cost fixing leave them.
func nodeProblem(rng *rand.Rand, n, m int, fixed float64) *Problem {
	const k = 8
	p := &Problem{
		Maximize: rng.Intn(2) == 0,
		C:        make([]float64, n),
		A:        make([][]float64, m),
		Op:       make([]ConstraintOp, m),
		B:        make([]float64, m),
		Lo:       make([]float64, n),
		Hi:       make([]float64, n),
	}
	ones := 0
	for j := 0; j < n; j++ {
		p.C[j] = 1 + rng.Float64()*9
		p.Hi[j] = 1
		if rng.Float64() < fixed {
			p.Hi[j] = 0
			if ones < k/4 && rng.Intn(20) == 0 {
				p.Lo[j], p.Hi[j] = 1, 1
				ones++
			}
		}
	}
	for i := 0; i < m; i++ {
		p.A[i] = make([]float64, n)
		if i == 0 {
			for j := range p.A[i] {
				p.A[i][j] = 1
			}
			p.Op[i], p.B[i] = EQ, k
			continue
		}
		for j := range p.A[i] {
			p.A[i][j] = rng.Float64() * 10
		}
		if i%2 == 1 {
			p.Op[i], p.B[i] = LE, k*5.5
		} else {
			p.Op[i], p.B[i] = GE, k*4.5
		}
	}
	return p
}

// boxProblem is nodeProblem at the root: no column fixed.
func boxProblem(rng *rand.Rand, n, m int) *Problem { return nodeProblem(rng, n, m, 0) }

// BenchmarkSolve times one LP solve per operation and reports the time
// per simplex iteration, the unit the pivot and pricing loops work in.
func BenchmarkSolve(b *testing.B) {
	type bench struct {
		name string
		p    *Problem
	}
	var cases []bench
	for _, n := range []int{1000, 20000} {
		for _, m := range []int{3, 5, 10} {
			rng := rand.New(rand.NewSource(int64(n + m)))
			cases = append(cases, bench{fmt.Sprintf("m=%d/n=%d", m, n), boxProblem(rng, n, m)})
		}
	}
	cases = append(cases, bench{"node/m=5/n=1000/fixed=70%", nodeProblem(rand.New(rand.NewSource(7)), 1000, 5, 0.7)})
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			iters := 0
			for i := 0; i < b.N; i++ {
				s, err := solve(c.p)
				if err != nil {
					b.Fatal(err)
				}
				if s.Status != Optimal {
					b.Fatalf("status %v, want optimal", s.Status)
				}
				iters += s.Iterations
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(iters), "ns/iter")
			b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
		})
	}
}
