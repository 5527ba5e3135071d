package robust

import (
	"fmt"
	"testing"

	"locble/internal/rng"
)

// BenchmarkMADInto times the median/MAD kernel on residual-like data
// (Gaussian bulk plus a few gross outliers) at the sample counts the
// IRLS inner fit sees.
func BenchmarkMADInto(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := rng.New(int64(n))
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = src.Normal(0, 2)
				if i%9 == 4 {
					xs[i] += 18
				}
			}
			scratch := make([]float64, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, scratch = MADInto(xs, scratch)
			}
		})
	}
}
