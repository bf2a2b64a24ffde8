package paq

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/relation"
)

// specKey fingerprints a compiled query for the solution cache: the
// input relation's identity *at its current version* plus the canonical
// rendering of the REPEAT bound, base predicate, restrictions,
// constraints, and objective. Two specs with equal keys describe the
// same optimization problem over the same data; mutating the relation
// bumps its version, so entries solved against older data become
// unreachable instead of being served stale (invalidate reclaims them).
// (The relation's address is sound as identity because every cache
// entry pins its relation for the entry's lifetime.) Predicates without a
// faithful rendering — a FuncPred with no Desc prints "<func>" — fall
// back to pointer identity so distinct anonymous predicates never
// collide: top-level ones by predicate pointer, and ones nested inside
// coefficient renderings (e.g. a CondCoef's gate) by keying the whole
// spec on its own identity. The PaQL compiler always sets Desc, so
// translated queries never pay either fallback.
func specKey(spec *core.Spec) string {
	var b strings.Builder
	// Key on the relation's identity, not the view pointer: a snapshot
	// and its head at the same version hold identical data, so solves
	// pinned to different snapshots of one dataset share cache entries.
	fmt.Fprintf(&b, "rel=%p@v%d;repeat=%d", spec.Rel.Identity(), spec.Rel.Version(), spec.Repeat)
	pred := func(tag string, p relation.Predicate) {
		s := p.String()
		if s == "<func>" {
			fmt.Fprintf(&b, ";%s=<func>@%p", tag, p)
			return
		}
		fmt.Fprintf(&b, ";%s=%s", tag, s)
	}
	if spec.Base != nil {
		pred("base", spec.Base)
	}
	for _, r := range spec.Restrictions {
		pred("restrict", r)
	}
	for _, c := range spec.Constraints {
		fmt.Fprintf(&b, ";cons=%s %s %g", c.Coef, c.Op, c.RHS)
	}
	if o := spec.Objective; o != nil {
		sense := "min"
		if o.Maximize {
			sense = "max"
		}
		fmt.Fprintf(&b, ";obj=%s %s +%g", sense, o.Coef, o.Offset)
	}
	key := b.String()
	if strings.Contains(key, "<func>") {
		// An anonymous predicate leaked into a coefficient rendering;
		// its text cannot distinguish different functions, so restrict
		// the key to this exact spec value.
		key += fmt.Sprintf(";spec=%p", spec)
	}
	return key
}

// shapeKey fingerprints a query's *structure* for the adaptive
// planner: unlike specKey it deliberately ignores the data (no
// relation identity, no version, no constraint right-hand sides — only
// an order-of-magnitude size bucket), so executions of the same query
// template at different constants and dataset versions pool their
// observed outcomes. Two statements with equal shape keys are expected
// to behave alike under each evaluation method — which is exactly the
// granularity the advisor scores at.
func shapeKey(spec *core.Spec) string {
	var b strings.Builder
	// log2 bucket of the eligible-row count: method trade-offs shift
	// with problem size, but pooling within a 2x band keeps shapes warm
	// across inserts and deletes.
	bucket := 0
	for n := len(spec.BaseRows()); n > 0; n >>= 1 {
		bucket++
	}
	fmt.Fprintf(&b, "rel=%s;size=2^%d;repeat=%d", spec.Rel.Name(), bucket, spec.Repeat)
	pred := func(tag string, p relation.Predicate) {
		s := p.String()
		if s == "<func>" {
			fmt.Fprintf(&b, ";%s=<func>@%p", tag, p)
			return
		}
		fmt.Fprintf(&b, ";%s=%s", tag, s)
	}
	if spec.Base != nil {
		pred("base", spec.Base)
	}
	for _, r := range spec.Restrictions {
		pred("restrict", r)
	}
	// Constraint structure without the RHS constants.
	for _, c := range spec.Constraints {
		fmt.Fprintf(&b, ";cons=%s %s", c.Coef, c.Op)
	}
	if o := spec.Objective; o != nil {
		sense := "min"
		if o.Maximize {
			sense = "max"
		}
		fmt.Fprintf(&b, ";obj=%s %s", sense, o.Coef)
	}
	return b.String()
}
