package main

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/workload"
	"repro/paq"
)

// dataset is one generated relation with its seven workload queries.
type dataset struct {
	name string
	// id names the dataset on the server (name plus an instance number
	// when one server holds several instances).
	id      string
	rel     *relation.Relation
	queries []workload.Query
	checks  []*checkQuery
	// attrs are the workload attributes: the union of the queries'
	// attributes, which the paper partitions on.
	attrs []string
}

// makeDataset generates the named dataset ("galaxy" or "tpch") with n
// rows from seed and builds its queries.
func makeDataset(name string, n int, seed int64) (*dataset, error) {
	ds := &dataset{name: name, id: name}
	var err error
	switch name {
	case "galaxy":
		ds.rel = workload.Galaxy(n, seed)
		ds.queries, err = workload.GalaxyQueries(ds.rel)
	case "tpch":
		ds.rel = workload.TPCH(n, seed)
		ds.queries, err = workload.TPCHQueries(ds.rel)
	default:
		err = fmt.Errorf("unknown dataset %q", name)
	}
	if err != nil {
		return nil, err
	}
	for _, q := range ds.queries {
		cq, err := parseCheckQuery(q.PaQL)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", name, q.Name, err)
		}
		ds.checks = append(ds.checks, cq)
	}
	ds.attrs = workload.WorkloadAttrs(ds.queries)
	return ds, nil
}

// tables returns each query's Figure-3 base table. Queries with the
// same eligible fraction share one table.
func (ds *dataset) tables() []*relation.Relation {
	byFrac := make(map[float64]*relation.Relation)
	out := make([]*relation.Relation, len(ds.queries))
	for i, q := range ds.queries {
		t, ok := byFrac[q.SubsetFrac]
		if !ok {
			t = workload.QueryTable(ds.rel, q)
			byFrac[q.SubsetFrac] = t
		}
		out[i] = t
	}
	return out
}

// numericCols lists the numeric columns of a relation with their
// indexes.
func numericCols(rel *relation.Relation) map[string]int {
	out := make(map[string]int)
	s := rel.Schema()
	for i := 0; i < s.Len(); i++ {
		if c := s.Col(i); c.Type.Numeric() {
			out[c.Name] = i
		}
	}
	return out
}

// packageOf reads a result's package back from the relation it was
// solved over.
func packageOf(rel *relation.Relation, rows, mult []int) ([]pkgRow, error) {
	cols := numericCols(rel)
	out := make([]pkgRow, len(rows))
	for i, r := range rows {
		if r < 0 || r >= rel.Len() || rel.Deleted(r) {
			return nil, fmt.Errorf("check: package row %d is not a live row", r)
		}
		vals := make(map[string]float64, len(cols))
		for name, c := range cols {
			vals[name] = rel.Float(r, c)
		}
		out[i] = pkgRow{vals: vals, mult: mult[i]}
	}
	return out, nil
}

// checkResult re-checks a result against its query and returns the
// recomputed objective.
func checkResult(cq *checkQuery, rel *relation.Relation, res *paq.Result) (float64, error) {
	if len(res.Rows) != len(res.Mult) {
		return 0, fmt.Errorf("check: %d rows but %d multiplicities", len(res.Rows), len(res.Mult))
	}
	pkg, err := packageOf(rel, res.Rows, res.Mult)
	if err != nil {
		return 0, err
	}
	obj, err := cq.check(pkg)
	if err != nil {
		return 0, err
	}
	if cq.objective != nil && !sameObjective(obj, res.Objective) {
		return 0, fmt.Errorf("check: reported objective %.9g, rows give %.9g", res.Objective, obj)
	}
	return obj, nil
}

// mixSeed derives the seed of the k-th generated input from the run's
// seed (splitmix64), so instances are independent but reproducible.
func mixSeed(seed int64, k int) int64 {
	z := uint64(seed) + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}
