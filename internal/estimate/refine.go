package estimate

import "math"

// dbFitAt is the closed-form inner fit behind the paper's Eq. (5): for a
// fixed candidate position (x, h), the path-loss model RSᵢ = Γ − 10·n·gᵢ
// with gᵢ = log10(lᵢ), lᵢ = hypot(x+pᵢ, h+qᵢ), is *linear* in (Γ, n), so
// the fading coefficient and power offset come from a linear regression
// of RSS on gᵢ, and the fit quality is the residual sum of squares. The
// paper's numeric search for n̂*(e) is thereby collapsed into a closed
// form; the numeric search happens only over position. The per-sample
// log-distances live in the solver's gs arena, so the fit — the single
// hottest function in the pipeline, called for every objective
// evaluation of every Nelder–Mead iteration — allocates nothing.
func (s *Solver) dbFitAt(obs []Obs, x, h, nMin, nMax float64) (n, gamma, ss float64) {
	n, gamma = s.dbCoefAt(obs, x, h, nMin, nMax)
	gs := s.gs
	for i, o := range obs {
		r := o.RSS - (gamma - 10*n*gs[i])
		ss += r * r
	}
	return n, gamma, ss
}

// dbCoefAt is dbFitAt's closed-form coefficient fit without the
// residual pass: it fills the gs arena and returns (n, Γ). The IRLS
// path starts from it and scores residuals under its own loss.
func (s *Solver) dbCoefAt(obs []Obs, x, h, nMin, nMax float64) (n, gamma float64) {
	var sg, sr, sgg, sgr float64
	nn := float64(len(obs))
	s.gs = growFloats(s.gs, len(obs))
	gs := s.gs
	for i, o := range obs {
		// log10(dist) via ½·log10(dist²): the distance itself is never
		// needed, so the per-observation sqrt inside Hypot is skipped.
		// The 0.05 m near-field clamp becomes 0.0025 on the square.
		dp, dq := x+o.P, h+o.Q
		l2 := dp*dp + dq*dq
		if l2 < 0.0025 {
			l2 = 0.0025
		}
		g := 0.5 * math.Log10(l2)
		gs[i] = g
		sg += g
		sr += o.RSS
		sgg += g * g
		sgr += g * o.RSS
	}
	den := nn*sgg - sg*sg
	if den < 1e-12 {
		// All distances equal (observer orbiting the target): the slope
		// is unidentifiable; clamp to a mid exponent.
		n = (nMin + nMax) / 2
	} else {
		slope := (nn*sgr - sg*sr) / den
		n = -slope / 10
	}
	n = math.Min(math.Max(n, nMin), nMax)
	gamma = (sr + 10*n*sg) / nn
	return n, gamma
}

// ringInits proposes starting positions for the position search: the
// strongest filtered RSS implies a rough distance ring (assuming nominal
// Γ ≈ −60 dBm and a plausible exponent); candidates are spread around
// rings at a few radii in all directions. Results are appended to the
// solver's ring arena and valid until the next ringInits call.
func (s *Solver) ringInits(obs []Obs) [][2]float64 {
	maxRSS := math.Inf(-1)
	for _, o := range obs {
		if o.RSS > maxRSS {
			maxRSS = o.RSS
		}
	}
	var radii [4]float64
	for i, n := range [2]float64{2.0, 3.0} {
		d := math.Pow(10, (-60-maxRSS)/(10*n))
		radii[i] = clampF(d, 0.5, 20)
	}
	radii[2], radii[3] = 3, 7
	out := s.ringP[:0]
	for _, r := range radii {
		for k := 0; k < 8; k++ {
			th := 2 * math.Pi * float64(k) / 8
			out = append(out, [2]float64{r * math.Cos(th), r * math.Sin(th)})
		}
	}
	s.ringP = out
	return out
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
