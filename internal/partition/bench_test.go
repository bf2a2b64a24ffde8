package partition

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/workload"
)

// BenchmarkPartitionBuild measures the offline partitioning at several
// worker counts; on a multi-core machine the GOMAXPROCS row should beat
// workers=1 by roughly the core count (the quad-tree fan-out is
// embarrassingly parallel below the first few levels).
func BenchmarkPartitionBuild(b *testing.B) {
	rel := workload.Galaxy(40000, 17)
	attrs := []string{"ra", "dec", "redshift", "petrorad"}
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := Build(rel, Options{
					Attrs:         attrs,
					SizeThreshold: rel.Len()/10 + 1,
					Workers:       workers,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
