package ggcg_test

import (
	"testing"

	"ggcg"
	"ggcg/internal/diffexec"
	"ggcg/internal/progen"
)

// diffExecSeeds is the progen seed range BenchmarkDiffExec checks.
const diffExecSeeds = 200

// BenchmarkDiffExec is the differential oracle's throughput: the whole
// diffexec lattice over progen seeds 1-200 on each target, reported as
// exec/s, programs checked (each compiled along every oracle path and
// executed on the target's simulator) per second.
func BenchmarkDiffExec(b *testing.B) {
	srcs := make([]string, diffExecSeeds)
	for i := range srcs {
		srcs[i] = progen.Generate(int64(i + 1)).Render()
	}
	for _, name := range ggcg.Targets() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j, src := range srcs {
					if err := diffexec.Check(src, diffexec.Config{Target: name}); err != nil {
						b.Fatalf("seed %d: %v", j+1, err)
					}
				}
			}
			b.ReportMetric(float64(len(srcs)*b.N)/b.Elapsed().Seconds(), "exec/s")
		})
	}
}
