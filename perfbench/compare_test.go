package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareVerdicts(t *testing.T) {
	bench := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end": [
		{"name": "query_p50_ms", "better": "lower", "bound": 0.1},
		{"name": "setup_s", "better": "lower", "bound": 0.25}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	parent, change := t.TempDir(), t.TempDir()
	for seed := int64(1); seed <= 10; seed++ {
		base := 10 + float64(seed%3)*0.1
		write := func(dir string, p50, setup float64) {
			rec := &record{Workload: "paper", Seed: seed,
				Metrics: map[string]metric{"query_p50_ms": {Value: p50, Unit: "ms"}, "setup_s": {Value: setup, Unit: "s"}},
				Detail:  map[string]metric{"sr_ratio_median": {Value: 1.05, Unit: "ratio"}}}
			if err := writeJSON(filepath.Join(dir, fmt.Sprintf("paper-seed%d-trace0.json", seed)), rec); err != nil {
				t.Fatal(err)
			}
		}
		write(parent, base, 1)
		write(change, base*0.5, 1.5) // twice as fast, set-up 50% slower
	}
	// A traced record must be ignored.
	if err := writeJSON(filepath.Join(change, "paper-seed1-trace1.json"), &record{Workload: "paper", Seed: 1, Trace: true}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runCompare(&out, bench, parent, change); err != nil {
		t.Fatal(err)
	}
	lines := out.String()
	for _, want := range []string{"query_p50_ms", "10/10", "better", "setup_s", "worse", "sr_ratio_median", "unchanged"} {
		if !strings.Contains(lines, want) {
			t.Errorf("compare output lacks %q:\n%s", want, lines)
		}
	}
}
