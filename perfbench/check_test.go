package main

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/paq"
)

func row(mult int, kv ...any) pkgRow {
	vals := make(map[string]float64)
	for i := 0; i < len(kv); i += 2 {
		vals[kv[i].(string)] = kv[i+1].(float64)
	}
	return pkgRow{vals: vals, mult: mult}
}

func TestCheckerGrammar(t *testing.T) {
	q, err := parseCheckQuery(`SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 2 AND
          SUM(P.u) - SUM(P.g) BETWEEN -1.5 AND 1.5 AND
          AVG(P.r) >= 2 AND MAX(P.r) <= 4 AND
          (SELECT COUNT(*) FROM P WHERE r > 2.5) >= 1
MAXIMIZE SUM(P.r)`)
	if err != nil {
		t.Fatal(err)
	}
	good := []pkgRow{row(1, "u", 3.0, "g", 2.0, "r", 3.0), row(1, "u", 1.0, "g", 1.0, "r", 2.0)}
	obj, err := q.check(good)
	if err != nil || obj != 5 {
		t.Fatalf("good package: obj %g, err %v", obj, err)
	}
	for name, bad := range map[string][]pkgRow{
		"count":    {row(1, "u", 3.0, "g", 2.0, "r", 3.0)},
		"repeat":   {row(2, "u", 1.0, "g", 1.0, "r", 3.0)},
		"between":  {row(1, "u", 9.0, "g", 2.0, "r", 3.0), row(1, "u", 1.0, "g", 1.0, "r", 2.0)},
		"avg":      {row(1, "u", 1.0, "g", 1.0, "r", 2.6), row(1, "u", 1.0, "g", 1.0, "r", 1.0)},
		"max":      {row(1, "u", 1.0, "g", 1.0, "r", 5.0), row(1, "u", 1.0, "g", 1.0, "r", 2.0)},
		"subquery": {row(1, "u", 1.0, "g", 1.0, "r", 2.0), row(1, "u", 1.0, "g", 1.0, "r", 2.5)},
	} {
		if _, err := q.check(bad); err == nil {
			t.Errorf("%s: violated package accepted", name)
		}
	}
	if !q.beats(6, 5) || q.beats(5, 5) || q.ratio(10, 8) != 1.25 {
		t.Error("maximize orientation")
	}
	if _, err := parseCheckQuery("SELECT PACKAGE(R) AS P FROM t R SUCH THAT STDDEV(P.x) <= 1"); err == nil {
		t.Error("unsupported aggregate accepted")
	}
}

// TestCheckerAgreesWithSolver runs every workload query through DIRECT
// on a small instance: the checker must accept each returned package
// and recompute its objective, and must reject it once a row is
// dropped.
func TestCheckerAgreesWithSolver(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"galaxy", "tpch"} {
		ds, err := makeDataset(name, 400, 7)
		if err != nil {
			t.Fatal(err)
		}
		inst, _, err := openInstance(nil, []*dataset{ds}, 7, solveParams{nodes: 20000, wall: 60e9})
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range ds.queries {
			st, err := inst.sess[0][qi].Prepare(q.PaQL, paq.WithMethod(paq.MethodDirect))
			if err != nil {
				t.Fatal(err)
			}
			res, err := st.Execute(ctx)
			if errors.Is(err, paq.ErrInfeasible) || errors.Is(err, paq.ErrBudget) {
				continue
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", name, q.Name, err)
			}
			table := inst.table[0][qi]
			if _, err := checkResult(ds.checks[qi], table, res); err != nil {
				t.Errorf("%s/%s: solver package rejected: %v", name, q.Name, err)
			}
			short := *res
			short.Rows, short.Mult = res.Rows[1:], res.Mult[1:]
			if _, err := checkResult(ds.checks[qi], table, &short); err == nil || !strings.Contains(err.Error(), "check:") {
				t.Errorf("%s/%s: package missing a row accepted (%v)", name, q.Name, err)
			}
		}
	}
}
