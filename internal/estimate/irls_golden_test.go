package estimate

import (
	"fmt"
	"math"
	"testing"

	"locble/internal/rng"
)

// irlsGolden is one pinned robust-loss fix: the IEEE-754 bits of every
// fitted quantity plus the down-weight census.
type irlsGolden struct {
	x, h, n, gamma, residual uint64
	down                     int
	ambiguous                bool
}

func (g irlsGolden) GoString() string {
	return fmt.Sprintf("{x: %#016x, h: %#016x, n: %#016x, gamma: %#016x, residual: %#016x, down: %d, ambiguous: %v}",
		g.x, g.h, g.n, g.gamma, g.residual, g.down, g.ambiguous)
}

// withOutliers adds a +18 dB gross outlier to every ninth sample, the
// periodic hostile pattern the pipeline benchmark's IRLS probe uses.
func withOutliers(obs []Obs) []Obs {
	for i := range obs {
		if i%9 == 4 {
			obs[i].RSS += 18
		}
	}
	return obs
}

// TestIRLSGolden pins Solver.Run under both robust losses bit-for-bit:
// X, H, N, Γ and ResidualDB as float64 bits, plus Downweighted. The
// constants were recorded with the sort-based median/MAD that preceded
// the selection kernel in internal/robust, so any change to the order
// statistics the IRLS loop sees — or to the arithmetic around them —
// shows here as a bit difference. The planar case runs the L-walk
// search; the collinear case runs the two-candidate mirror search.
//
// collinear-tukey was re-recorded when the collinear search began to
// screen its ring seeds (refineSeeds) instead of refining all 32. Its fix
// moved from (−0.242, 14.124), 10.63 m from the truth (3, 4) at
// objective 112.168, to (1.065, 10.592), 6.87 m from the truth at
// objective 112.502: the ring seed whose refinement found the lower but
// farther minimum does not screen into the best six. The
// collinear-tukey-exhaustive case keeps the old pin; it runs the
// exhaustive reference search and so checks that the reference still is
// the earlier search, bit for bit.
func TestIRLSGolden(t *testing.T) {
	planar := withOutliers(synthObs(5.5, 2, -60, 2.2, lPath(4, 4, 0.15), 1.5, rng.New(11)))
	collinear := withOutliers(synthObs(3, 4, -62, 2.5, lPath(6, 0, 0.15), 1.5, rng.New(7)))
	cases := []struct {
		name       string
		obs        []Obs
		loss       Loss
		exhaustive bool
		want       irlsGolden
	}{
		{"planar-huber", planar, LossHuber, false, irlsGolden{x: 0x401c01e1edc7c19e, h: 0x4001d2695a6ae9f4, n: 0x4009c46a1e11f72d, gamma: 0xc04894283bd92c86, residual: 0x401790b1d4c898fc, down: 9, ambiguous: false}},
		{"planar-tukey", planar, LossTukey, false, irlsGolden{x: 0x401b98d50f4c9713, h: 0x4001bb2499f72ab1, n: 0x400916cb5e511d0d, gamma: 0xc04926ed351150d7, residual: 0x4017e2588aa19d1b, down: 8, ambiguous: false}},
		{"collinear-huber", collinear, LossHuber, false, irlsGolden{x: 0x4002b4d6f33be25c, h: 0x400c1c35f9cf7f32, n: 0x3ff658d704884d79, gamma: 0xc05137f4d8fa11a0, residual: 0x4016969aaa5ba0b6, down: 5, ambiguous: true}},
		{"collinear-tukey", collinear, LossTukey, false, irlsGolden{x: 0x3ff10ab0327d7920, h: 0x40252f4892f5023a, n: 0x4006a621159c367c, gamma: 0xc048076f6fbfd8eb, residual: 0x40170554eba18ab9, down: 5, ambiguous: true}},
		{"collinear-tukey-exhaustive", collinear, LossTukey, true, irlsGolden{x: 0xbfcf04061c719cc8, h: 0x402c3fb8b6e11400, n: 0x40043b1d49e7d23f, gamma: 0xc047fffe9ab76e59, residual: 0x401712c8c2a9e79e, down: 6, ambiguous: true}},
	}
	s := NewSolver()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Loss = c.loss
			est, err := s.runSegmented(c.obs, nil, cfg, c.exhaustive)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			got := irlsGolden{
				x: math.Float64bits(est.X), h: math.Float64bits(est.H),
				n: math.Float64bits(est.N), gamma: math.Float64bits(est.Gamma),
				residual: math.Float64bits(est.ResidualDB),
				down:     est.Downweighted, ambiguous: est.Ambiguous,
			}
			if got != c.want {
				t.Errorf("fix diverged from the pinned result (X=%v H=%v n=%v Γ=%v r=%v down=%d)\n got  %#v\n want %#v",
					est.X, est.H, est.N, est.Gamma, est.ResidualDB, est.Downweighted, got, c.want)
			}
		})
	}
}
