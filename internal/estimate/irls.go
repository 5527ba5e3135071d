package estimate

import (
	"fmt"
	"math"

	"locble/internal/robust"
)

// Loss selects the regression loss of the dB-domain position search.
// The zero value is the classic squared loss, which keeps the default
// pipeline bit-identical to its historical behaviour; the robust losses
// wrap the same closed-form inner fit in IRLS (iteratively reweighted
// least squares) so a handful of hostile samples — impulse bursts,
// spoofed readings, coordinated outlier runs — cannot drag the fix the
// way a −30 dB outlier drags a squared fit.
type Loss int

const (
	// LossSquared is ordinary least squares (the paper's loss).
	LossSquared Loss = iota
	// LossHuber is the Huber M-estimator: quadratic near zero, linear in
	// the tails. With a huge delta it reproduces least squares
	// bit-exactly (the quadratic zone covers every residual).
	LossHuber
	// LossTukey is the Tukey bisquare M-estimator: redescending — gross
	// outliers get weight zero and a bounded loss contribution.
	LossTukey
)

func (l Loss) String() string {
	switch l {
	case LossSquared:
		return "squared"
	case LossHuber:
		return "huber"
	case LossTukey:
		return "tukey"
	}
	return fmt.Sprintf("Loss(%d)", int(l))
}

// ParseLoss resolves a loss name ("squared"/"ls", "huber", "tukey").
func ParseLoss(s string) (Loss, error) {
	switch s {
	case "squared", "ls", "l2", "":
		return LossSquared, nil
	case "huber":
		return LossHuber, nil
	case "tukey", "bisquare":
		return LossTukey, nil
	}
	return 0, fmt.Errorf("estimate: unknown loss %q (squared|huber|tukey)", s)
}

// Robust-loss defaults: the standard 95%-Gaussian-efficiency tuning
// constants, an IRLS depth that converges for RSS-sized samples, the
// minimum residual scale (real BLE RSS noise never drops below a
// fraction of a dB), and the weight below which an observation counts
// as "down-weighted" in diagnostics.
const (
	defaultHuberDelta    = 1.345
	defaultTukeyC        = 4.685
	defaultIRLSIters     = 3
	irlsScaleFloorDB     = 0.5
	downweightedBelowW   = 0.5
	irlsMinUsableWeightS = 1e-9
)

// robustFitAt is the IRLS counterpart of dbFitAt: for a fixed candidate
// position (x, h) it fits (n, Γ) under the configured robust loss.
// Iteration 0 is the plain closed-form fit; each subsequent iteration
// re-scales the residuals by their MAD-derived σ, converts them into
// Huber/Tukey weights, and re-solves the weighted normal equations —
// all inside the solver's arenas, so the whole search stays
// allocation-free once warm. It returns the robust score (Σρ of the
// final residuals — the position-search objective), plus how many
// observations ended below the down-weight threshold.
//
// Bit-exactness contract: with LossHuber and a delta large enough that
// every residual stays in the quadratic zone, the weights are exactly 1
// and each arithmetic expression below reduces to the exact expression
// dbFitAt evaluates, so (n, Γ, score) — and therefore the entire
// position search — reproduce the squared-loss results bit-for-bit.
func (s *Solver) robustFitAt(obs []Obs, x, h float64, cfg *Config) (n, gamma, score float64, down int) {
	n, gamma = s.dbCoefAt(obs, x, h, cfg.NMin, cfg.NMax) // fills s.gs
	m := len(obs)
	s.rr = growFloats(s.rr, m)
	s.w = growFloats(s.w, m)
	rr, w, gs := s.rr, s.w, s.gs

	iters := cfg.IRLSIterations
	if iters <= 0 {
		iters = defaultIRLSIters
	}
	delta, c := cfg.HuberDelta, cfg.TukeyC
	if delta <= 0 {
		delta = defaultHuberDelta
	}
	if c <= 0 {
		c = defaultTukeyC
	}

	for it := 0; it < iters; it++ {
		for i, o := range obs {
			rr[i] = o.RSS - (gamma - 10*n*gs[i])
		}
		var mad float64
		_, mad, s.madScratch = robust.MADInto(rr, s.madScratch)
		sigma := robust.Scale(mad, irlsScaleFloorDB)
		for i := range rr {
			if cfg.Loss == LossTukey {
				w[i] = robust.TukeyWeight(rr[i], sigma, c)
			} else {
				w[i] = robust.HuberWeight(rr[i], sigma, delta)
			}
		}
		var sw, swg, swr, swgg, swgr float64
		for i, o := range obs {
			wi, g := w[i], gs[i]
			wg := wi * g
			sw += wi
			swg += wg
			swr += wi * o.RSS
			swgg += wg * g
			swgr += wg * o.RSS
		}
		if sw < irlsMinUsableWeightS {
			// Every observation rejected (pathological scale collapse):
			// keep the previous iteration's fit rather than divide by ~0.
			break
		}
		den := sw*swgg - swg*swg
		if den < 1e-12 {
			n = (cfg.NMin + cfg.NMax) / 2
		} else {
			slope := (sw*swgr - swg*swr) / den
			n = -slope / 10
		}
		n = math.Min(math.Max(n, cfg.NMin), cfg.NMax)
		gamma = (swr + 10*n*swg) / sw
	}

	// Final robust score and down-weight census at the converged (n, Γ).
	for i, o := range obs {
		rr[i] = o.RSS - (gamma - 10*n*gs[i])
	}
	var mad float64
	_, mad, s.madScratch = robust.MADInto(rr, s.madScratch)
	sigma := robust.Scale(mad, irlsScaleFloorDB)
	for i := range rr {
		var wi float64
		if cfg.Loss == LossTukey {
			score += robust.TukeyRho(rr[i], sigma, c)
			wi = robust.TukeyWeight(rr[i], sigma, c)
		} else {
			score += robust.HuberRho(rr[i], sigma, delta)
			wi = robust.HuberWeight(rr[i], sigma, delta)
		}
		w[i] = wi
		if wi < downweightedBelowW {
			down++
		}
	}
	return n, gamma, score, down
}

// fitAt dispatches between the squared-loss closed form and the IRLS
// robust fit. down is 0 for the squared loss (nothing is weighted).
func (s *Solver) fitAt(obs []Obs, cfg *Config, x, h float64) (n, gamma, score float64, down int) {
	if cfg.Loss == LossSquared {
		n, gamma, score = s.dbFitAt(obs, x, h, cfg.NMin, cfg.NMax)
		return n, gamma, score, 0
	}
	return s.robustFitAt(obs, x, h, cfg)
}

// FitProbe runs one complete inner-fit minimization (closed-form for
// LossSquared, IRLS for the robust losses) from the given start
// position, entirely inside the Solver's arenas, and returns the
// converged score. It is the allocation-probe entry point for the
// pipeline benchmark gate: after one warming call has sized the scratch
// buffers, repeated FitProbe calls must perform zero heap allocations.
func (s *Solver) FitProbe(obs []Obs, cfg Config, x, h float64) float64 {
	cfg.softDefaults()
	f := func(v []float64) float64 {
		_, _, score, _ := s.fitAt(obs, &cfg, v[0], v[1])
		return score
	}
	x0 := s.nm.x0[:2]
	x0[0], x0[1] = x, h
	_, best := s.minimize(f, x0, 1.0, 200, nil)
	return best
}
