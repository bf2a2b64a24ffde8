package main

import "testing"

// TestMatchReference: an untruncated DIRECT answer must equal the
// reference optimum, never be worse than a truncated reference package,
// and infeasibility verdicts must agree.
func TestMatchReference(t *testing.T) {
	maxQ := &checkQuery{maximize: true}
	for _, c := range []struct {
		name string
		want string
		got  answer
		ok   bool
	}{
		{"same optimum", "10.5", answer{obj: 10.5, ok: true}, true},
		{"worse optimum", "10.5", answer{obj: 10.4, ok: true}, false},
		{"better optimum", "10.5", answer{obj: 10.6, ok: true}, false},
		{"truncated below the optimum", "10.5", answer{obj: 9, ok: true, truncated: true}, true},
		{"truncated beats the optimum", "10.5", answer{obj: 11, ok: true, truncated: true}, false},
		{"optimum over a truncated reference", "t:9", answer{obj: 10.5, ok: true}, true},
		{"optimum worse than a truncated reference", "t:9", answer{obj: 8, ok: true}, false},
		{"both truncated", "t:9", answer{obj: 8, ok: true, truncated: true}, true},
		{"infeasible both", "infeasible", answer{infeas: true}, true},
		{"package where the reference is infeasible", "infeasible", answer{obj: 1, ok: true}, false},
		{"infeasible where the reference has a package", "10.5", answer{infeas: true}, false},
		{"bad entry", "", answer{obj: 1, ok: true}, false},
	} {
		err := matchReference(maxQ, c.want, c.got)
		if (err == nil) != c.ok {
			t.Errorf("%s: err %v, want ok=%v", c.name, err, c.ok)
		}
	}
	x := 0.1
	x += 0.2 // not 0.3 in floating point
	if got := encodeAnswer(answer{obj: x, ok: true}); got != "0.30000000000000004" {
		t.Errorf("encoded %q: the shortest exact form expected", got)
	}
}
