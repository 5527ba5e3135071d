package estimate

import (
	"testing"

	"locble/internal/rng"
)

func BenchmarkRunPlanar(b *testing.B) {
	obs := synthObs(5.5, 2, -60, 2.2, lPath(4, 4, 0.15), 2.0, rng.New(1))
	benchmarkRun(b, obs)
}

func BenchmarkRunCollinear(b *testing.B) {
	var path [][2]float64
	for d := 0.0; d <= 6; d += 0.15 {
		path = append(path, [2]float64{d, 0})
	}
	obs := synthObs(4, 2.5, -60, 2.0, path, 2.0, rng.New(2))
	benchmarkRun(b, obs)
}

// benchmarkRun times Run on obs and reports objective evaluations per
// fix alongside time and allocations.
func benchmarkRun(b *testing.B, obs []Obs) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	e0 := metEvals.Value()
	for i := 0; i < b.N; i++ {
		if _, err := Run(obs, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(metEvals.Value()-e0)/float64(b.N), "evals/op")
}

func BenchmarkRunSegmented(b *testing.B) {
	obs := synthObs(5.5, 2, -60, 2.2, lPath(4, 4, 0.15), 2.0, rng.New(1))
	cfg := DefaultConfig()
	split := len(obs) / 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunSegmented(obs, []int{split}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitProbeHuber times one complete Huber IRLS inner-fit
// minimization on an L-walk with periodic gross outliers: the kernel
// the robust path repeats for every Nelder–Mead start.
func BenchmarkFitProbeHuber(b *testing.B) {
	obs := withOutliers(synthObs(5.5, 2, -60, 2.2, lPath(4, 4, 0.15), 1.5, rng.New(11)))
	cfg := DefaultConfig()
	cfg.Loss = LossHuber
	s := NewSolver()
	s.FitProbe(obs, cfg, 3, 1) // size every arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FitProbe(obs, cfg, 3, 1)
	}
}
