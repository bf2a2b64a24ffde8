package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// halfInt returns a random multiple of ½ in [−k/2, k/2]. Half-integer
// data makes exact ties and degenerate vertices common, which is where
// two simplex implementations that pivot differently part ways.
func halfInt(rng *rand.Rand, k int) float64 {
	return float64(rng.Intn(2*k+1)-k) / 2
}

// randomProblem draws a small LP mixing every column and row shape the
// solver handles: fixed columns (at zero and elsewhere), duplicate
// columns, lower-unbounded and upper-unbounded columns, parallel rows,
// and ≤/≥/= rows. Some draws are infeasible or unbounded.
func randomProblem(rng *rand.Rand) *Problem {
	n := rng.Intn(31)
	m := rng.Intn(7)
	p := &Problem{
		Maximize: rng.Intn(2) == 0,
		C:        make([]float64, n),
		A:        make([][]float64, m),
		Op:       make([]ConstraintOp, m),
		B:        make([]float64, m),
		Lo:       make([]float64, n),
		Hi:       make([]float64, n),
	}
	for i := range p.A {
		p.A[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		if j > 0 && rng.Intn(8) == 0 {
			// Duplicate of an earlier column, bounds included.
			src := rng.Intn(j)
			p.C[j], p.Lo[j], p.Hi[j] = p.C[src], p.Lo[src], p.Hi[src]
			for i := range p.A {
				p.A[i][j] = p.A[i][src]
			}
			continue
		}
		p.C[j] = halfInt(rng, 6)
		for i := range p.A {
			if rng.Intn(4) > 0 {
				p.A[i][j] = halfInt(rng, 6)
			}
		}
		switch r := rng.Intn(10); {
		case r < 3: // fixed, mostly at 0 as after branching
			v := 0.0
			if rng.Intn(3) == 0 {
				v = halfInt(rng, 4)
			}
			p.Lo[j], p.Hi[j] = v, v
		case r < 4:
			p.Lo[j], p.Hi[j] = math.Inf(-1), halfInt(rng, 4)
		case r < 5:
			p.Lo[j], p.Hi[j] = halfInt(rng, 2), math.Inf(1)
		case r < 6:
			lo := halfInt(rng, 4)
			p.Lo[j], p.Hi[j] = lo, lo+float64(1+rng.Intn(4))/2
		default:
			p.Lo[j], p.Hi[j] = 0, 1
		}
	}
	// Most right-hand sides hold at a point inside the bounds, so most
	// draws are feasible; the rest are random.
	x0 := make([]float64, n)
	for j := range x0 {
		switch lo, hi := p.Lo[j], p.Hi[j]; {
		case math.IsInf(lo, -1):
			x0[j] = hi - float64(rng.Intn(3))
		case math.IsInf(hi, 1):
			x0[j] = lo + float64(rng.Intn(3))
		default:
			x0[j] = lo + float64(rng.Intn(int(2*(hi-lo))+1))/2
		}
	}
	for i := 0; i < m; i++ {
		p.Op[i] = ConstraintOp(rng.Intn(3))
		if i > 0 && rng.Intn(6) == 0 {
			// Parallel to an earlier row.
			src, f := rng.Intn(i), halfInt(rng, 4)
			for j := range p.A[i] {
				p.A[i][j] = f * p.A[src][j]
			}
		}
		switch rng.Intn(8) {
		case 0, 1:
			p.B[i] = halfInt(rng, 10)
			continue
		case 2:
			// Degenerate: many vertices meet at a zero right-hand
			// side, so the simplex stalls and turns to Bland's rule.
			p.B[i] = 0
			continue
		}
		ax := 0.0
		for j, a := range p.A[i] {
			ax += a * x0[j]
		}
		switch p.Op[i] {
		case LE:
			p.B[i] = ax + float64(rng.Intn(3))/2
		case GE:
			p.B[i] = ax - float64(rng.Intn(3))/2
		default:
			p.B[i] = ax
		}
	}
	return p
}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkSameSolve solves p with SolveCtx and with the reference solver in
// oracle_test.go, fails the test on any difference and returns the
// solution: Status, Iterations,
// Objective, X and the reduced costs of columns that can move must be
// bit-identical; fixed columns' reduced costs, which the two compute by
// different arithmetic, must agree to 1e-9 relative.
func checkSameSolve(t *testing.T, name string, p *Problem) *Solution {
	t.Helper()
	got, err := SolveCtx(context.Background(), p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := oracleSolveCtx(context.Background(), p)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if got.Status != want.Status || got.Iterations != want.Iterations {
		t.Fatalf("%s: got %v after %d iterations, reference %v after %d", name, got.Status, got.Iterations, want.Status, want.Iterations)
	}
	if !sameBits(got.Objective, want.Objective) {
		t.Fatalf("%s: objective %v, reference %v", name, got.Objective, want.Objective)
	}
	if len(got.X) != len(want.X) || len(got.DJ) != len(want.DJ) {
		t.Fatalf("%s: %d values and %d reduced costs, reference %d and %d", name, len(got.X), len(got.DJ), len(want.X), len(want.DJ))
	}
	for j := range got.X {
		if !sameBits(got.X[j], want.X[j]) {
			t.Fatalf("%s: x[%d] = %v, reference %v", name, j, got.X[j], want.X[j])
		}
		lo, hi := p.boundsAt(j)
		g, w := got.DJ[j], want.DJ[j]
		if hi-lo > pivTol {
			if !sameBits(g, w) {
				t.Fatalf("%s: DJ[%d] = %v, reference %v", name, j, g, w)
			}
		} else if math.Abs(g-w) > 1e-9*math.Max(1, math.Max(math.Abs(g), math.Abs(w))) {
			t.Fatalf("%s: fixed column DJ[%d] = %v, reference %v", name, j, g, w)
		}
	}
	return got
}

// TestSolveMatchesReference is the differential test of the compacted
// tableau against the full dense tableau it replaced, over seeded random
// problems small enough that ties, degeneracy, infeasibility and
// unboundedness all occur.
func TestSolveMatchesReference(t *testing.T) {
	const problems = 12000
	rng := rand.New(rand.NewSource(1))
	var byStatus [4]int
	for k := 0; k < problems; k++ {
		byStatus[checkSameSolve(t, "random problem", randomProblem(rng)).Status]++
	}
	t.Logf("%d problems: %d optimal, %d infeasible, %d unbounded, %d iteration limit",
		problems, byStatus[Optimal], byStatus[Infeasible], byStatus[Unbounded], byStatus[IterLimit])
	for st, c := range byStatus[:IterLimit] {
		if c < problems/20 {
			t.Errorf("only %d of %d problems are %v; the generator no longer covers that outcome", c, problems, Status(st))
		}
	}
}

// TestSolveMatchesReferenceNodeShaped covers the shape branch and bound
// produces: hundreds of [0,1] columns, most of them fixed by branching
// or reduced-cost fixing, under a handful of package constraints.
func TestSolveMatchesReferenceNodeShaped(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for k := 0; k < 200; k++ {
		p := nodeProblem(rng, 100+rng.Intn(300), 1+rng.Intn(10), 0.7)
		checkSameSolve(t, "node-shaped problem", p)
	}
}

// kuhnVariant returns Kuhn's cycling example (min −2x₁ − 3x₂ + x₃ + 12x₄
// over three ≤ rows, two of them degenerate at 0), with its rows scaled
// and extra columns mixed in: a third of them fixed, the rest too
// costly to enter. Dantzig's rule stalls on it, so the solve switches
// to Bland's rule part way.
func kuhnVariant(rng *rand.Rand) *Problem {
	c := []float64{-2, -3, 1, 12}
	a := [][]float64{{-2, -9, 1, 9}, {1.0 / 3, 1, -1.0 / 3, -2}, {2, 3, -1, -12}}
	b := []float64{0, 0, 2}
	scale := []float64{0.5, 1, 2, 4}
	p := &Problem{Op: []ConstraintOp{LE, LE, LE}, B: make([]float64, 3), A: make([][]float64, 3)}
	extra := rng.Intn(8)
	at := make([]int, extra) // position of each extra column among the original four
	for e := range at {
		at[e] = rng.Intn(5)
	}
	for i := range a {
		f := scale[rng.Intn(len(scale))]
		p.B[i] = f * b[i]
		for j := 0; j <= len(c); j++ {
			for e := range at {
				if at[e] == j {
					p.A[i] = append(p.A[i], halfInt(rng, 6))
				}
			}
			if j < len(c) {
				p.A[i] = append(p.A[i], f*a[i][j])
			}
		}
	}
	for j := 0; j <= len(c); j++ {
		for e := range at {
			if at[e] != j {
				continue
			}
			if rng.Intn(3) == 0 {
				v := float64(rng.Intn(2) * rng.Intn(2))
				p.C = append(p.C, halfInt(rng, 6))
				p.Lo = append(p.Lo, v)
				p.Hi = append(p.Hi, v)
			} else {
				p.C = append(p.C, 20+float64(rng.Intn(10)))
				p.Lo = append(p.Lo, 0)
				p.Hi = append(p.Hi, 1)
			}
		}
		if j < len(c) {
			p.C = append(p.C, c[j])
			p.Lo = append(p.Lo, 0)
			p.Hi = append(p.Hi, 100)
		}
	}
	return p
}

// TestSolveMatchesReferenceUnderBland drives the differential test
// through Bland's rule, which the random problems above are too small
// to stall into: about one in ten of these Kuhn variants switches to it.
func TestSolveMatchesReferenceUnderBland(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 1000; k++ {
		checkSameSolve(t, "Kuhn variant", kuhnVariant(rng))
	}
}
