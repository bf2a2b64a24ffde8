package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/paq"
)

// A paper reference file holds, for one seed, DIRECT's answer to every
// instance query, produced by `perfbench --workload paper --seed N
// --write-reference DIR`. Every later run of that seed must match it, so
// a change that makes DIRECT return a valid but worse package fails the
// run instead of passing the rerun and cross-method checks unnoticed.
//
// An answer is written as the objective of an untruncated optimum (in
// the shortest form that reads back exactly), "t:" and the objective
// for a package found when the node budget ran out, or "infeasible".
type paperReference struct {
	Seed       int64      `json:"seed"`
	Instances  int        `json:"instances"`
	GalaxyRows int        `json:"galaxy_rows"`
	TPCHRows   int        `json:"tpch_rows"`
	NodeBudget int        `json:"node_budget"`
	Direct     [][]string `json:"direct,omitempty"` // [instance][dataset*7 + query]
}

func referencePath(dir string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("paper-seed%d.json", seed))
}

// loadReference reads the seed's reference; nil without error when
// none is committed for the seed.
func loadReference(dir string, seed int64) (*paperReference, error) {
	b, err := os.ReadFile(referencePath(dir, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ref paperReference
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("reference %s: %w", referencePath(dir, seed), err)
	}
	return &ref, nil
}

func encodeAnswer(a answer) string {
	switch {
	case a.infeas:
		return "infeasible"
	case a.truncated:
		return "t:" + strconv.FormatFloat(a.obj, 'g', -1, 64)
	default:
		return strconv.FormatFloat(a.obj, 'g', -1, 64)
	}
}

// reference builds the reference of a run from its first DIRECT answers.
func (b *solveBench) reference(seed int64, sz paperSize, insts []*instance) *paperReference {
	ref := &paperReference{Seed: seed, Instances: sz.instances, GalaxyRows: sz.galaxyN,
		TPCHRows: sz.tpchN, NodeBudget: sz.params.nodes}
	for k, inst := range insts {
		var row []string
		for di, ds := range inst.sets {
			for qi := range ds.queries {
				row = append(row, encodeAnswer(b.first[opKey{k, di, qi, paq.MethodDirect}]))
			}
		}
		ref.Direct = append(ref.Direct, row)
	}
	return ref
}

// checkReference compares every instance query's DIRECT answer with the
// reference. An untruncated answer must equal an untruncated reference
// optimum within the checker's tolerance; a truncated answer may not
// beat it; an untruncated answer may not be worse than a truncated
// reference's package; infeasibility verdicts must agree.
func (b *solveBench) checkReference(ref *paperReference, sz paperSize, insts []*instance) int {
	if ref.Instances != sz.instances || ref.GalaxyRows != sz.galaxyN || ref.TPCHRows != sz.tpchN ||
		ref.NodeBudget != sz.params.nodes || len(ref.Direct) != len(insts) {
		b.o.problem("reference for seed %d was made for other inputs (%d instances, %d/%d rows, %d nodes)",
			ref.Seed, ref.Instances, ref.GalaxyRows, ref.TPCHRows, ref.NodeBudget)
		return 0
	}
	checked := 0
	for k, inst := range insts {
		j := 0
		for di, ds := range inst.sets {
			for qi, q := range ds.queries {
				want := ""
				if j < len(ref.Direct[k]) {
					want = ref.Direct[k][j]
				}
				j++
				got, ok := b.first[opKey{k, di, qi, paq.MethodDirect}]
				if !ok {
					continue // the operation failed, which is counted as such
				}
				checked++
				name := fmt.Sprintf("instance %d %s/%s DIRECT", k, ds.name, q.Name)
				if err := matchReference(ds.checks[qi], want, got); err != nil {
					b.o.problem("%s: %v", name, err)
				}
			}
		}
	}
	return checked
}

func matchReference(cq *checkQuery, want string, got answer) error {
	if want == "infeasible" {
		if !got.infeas {
			return fmt.Errorf("reference is infeasible, run found objective %.17g", got.obj)
		}
		return nil
	}
	truncRef := strings.HasPrefix(want, "t:")
	v, err := strconv.ParseFloat(strings.TrimPrefix(want, "t:"), 64)
	if err != nil {
		return fmt.Errorf("bad reference entry %q", want)
	}
	switch {
	case got.infeas:
		return fmt.Errorf("infeasible, reference objective %.17g", v)
	case !truncRef && !got.truncated && !sameObjective(got.obj, v):
		return fmt.Errorf("optimum %.17g, reference optimum %.17g", got.obj, v)
	case !truncRef && got.truncated && cq.beats(got.obj, v):
		return fmt.Errorf("truncated objective %.17g beats the reference optimum %.17g", got.obj, v)
	case truncRef && !got.truncated && cq.beats(v, got.obj):
		return fmt.Errorf("optimum %.17g is worse than the reference's truncated package %.17g", got.obj, v)
	}
	return nil
}

// writePaperReference solves every instance query of the seed once with
// DIRECT, checks each package, and writes the seed's reference file.
func writePaperReference(ctx context.Context, cfg runConfig) (string, error) {
	sz := paperSizes(cfg)
	sz.setups = 1
	o := newOutcome(false)
	insts, _, err := paperInstances(nil, cfg, sz)
	if err != nil {
		return "", err
	}
	b := newSolveBench(o)
	for k, inst := range insts {
		if _, err := b.pass(ctx, nil, k, inst, paq.MethodDirect); err != nil {
			return "", err
		}
	}
	if len(o.problems) > 0 || o.failed > 0 {
		return "", fmt.Errorf("reference run failed: %d failed operations, checks: %v", o.failed, o.problems)
	}
	ref := b.reference(cfg.seed, sz, insts)
	rows := ref.Direct
	ref.Direct = nil
	head, err := json.Marshal(ref)
	if err != nil {
		return "", err
	}
	// One instance per line keeps the file readable and its diffs small.
	var sb strings.Builder
	sb.Write(head[:len(head)-1])
	sb.WriteString(`,"direct":[`)
	for i, row := range rows {
		line, err := json.Marshal(row)
		if err != nil {
			return "", err
		}
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString("\n")
		sb.Write(line)
	}
	sb.WriteString("\n]}\n")
	path := referencePath(cfg.refDir, cfg.seed)
	if err := os.MkdirAll(cfg.refDir, 0o755); err != nil {
		return "", err
	}
	return path, os.WriteFile(path, []byte(sb.String()), 0o644)
}
