package estimate

import (
	"errors"
	"math"
	"sync"
)

// Solver owns the estimator's reusable scratch: the log-distance and
// residual buffers behind the closed-form inner fit, the ρ buffer of the
// elliptical initializer, the Nelder–Mead simplex arena, and the seed
// lists of the position search. A warmed Solver runs the whole inner
// search loop — objective evaluations and simplex iterations — without
// allocating; only the returned *Estimate (and its Candidates) is fresh
// memory. A Solver is NOT safe for concurrent use: give each goroutine
// its own (the LocateAll worker pool does exactly that), or go through
// the package-level Run/RunSegmented/RunLShape/Run3D wrappers, which
// draw from an internal sync.Pool.
//
// The Solver changes where buffers live, not what is computed: every
// arithmetic expression is evaluated in the same order as the original
// allocation-per-call implementation, so results are bit-identical.
type Solver struct {
	// gs holds per-observation log-distances for the closed-form (n, Γ)
	// fit; valid only within one dbFitAt/dbFit3At call.
	gs []float64
	// resid holds per-observation fit residuals in finish.
	resid []float64
	// rho holds ρᵢ values for the elliptical-LS initializer.
	rho []float64
	// rr / w / madScratch are the IRLS residual, weight and MAD working
	// buffers of the robust inner fit (robustFitAt).
	rr, w, madScratch []float64
	// nm is the Nelder–Mead simplex arena (fixed-size, up to 3 params).
	nm nmArena
	// seeds / rings are the position-search candidate lists.
	seeds []seedXY
	rings []scoredSeed
	ringP [][2]float64
	// legA / legB are the per-leg observation splits of RunLShape.
	legA, legB []Obs
}

// seedXY is one refinement starting position.
type seedXY struct{ x, h float64 }

// scoredSeed is a ring seed with its screening score.
type scoredSeed struct {
	s seedXY
	v float64
}

// NewSolver returns an empty Solver; buffers grow on first use and are
// retained across runs.
func NewSolver() *Solver { return &Solver{} }

// solverPool backs the package-level entry points so casual callers get
// scratch reuse without managing Solver lifetimes.
var solverPool = sync.Pool{New: func() any { return NewSolver() }}

// Run fits the model to the observations and returns the estimate with
// the ambiguity (if any) unresolved.
func Run(obs []Obs, cfg Config) (*Estimate, error) {
	s := solverPool.Get().(*Solver)
	defer solverPool.Put(s)
	return s.Run(obs, cfg)
}

// RunSegmented fits one target position across environment segments
// using pooled scratch; see Solver.RunSegmented.
func RunSegmented(obs []Obs, segStarts []int, cfg Config) (*Estimate, error) {
	s := solverPool.Get().(*Solver)
	defer solverPool.Put(s)
	return s.RunSegmented(obs, segStarts, cfg)
}

// RunLShape disambiguates a straight-line mirror solution with the
// L-shaped movement using pooled scratch; see Solver.RunLShape.
func RunLShape(obs []Obs, splitT float64, cfg Config) (*LShapeResult, error) {
	s := solverPool.Get().(*Solver)
	defer solverPool.Put(s)
	return s.RunLShape(obs, splitT, cfg)
}

// Run3D runs the 3-D extension using pooled scratch; see Solver.Run3D.
func Run3D(obs []Obs3D, cfg Config) (*Estimate3D, error) {
	s := solverPool.Get().(*Solver)
	defer solverPool.Put(s)
	return s.Run3D(obs, cfg)
}

// Run is RunSegmented with a single segment.
func (s *Solver) Run(obs []Obs, cfg Config) (*Estimate, error) {
	return s.RunSegmented(obs, nil, cfg)
}

// RunSegmented fits one target position across environment segments:
// the geometry (x, h) is shared by all observations, while each segment
// gets its own (Γⱼ, nⱼ) — the paper's "start a new regression when the
// environment changes" (Algorithm 1), strengthened so the segments still
// constrain a single position jointly instead of producing independent
// (and individually ambiguous) per-segment answers. segStarts lists the
// first observation index of each segment ([0] or nil for a single
// segment); segments too short to support their own channel parameters
// are merged into their predecessor.
func (s *Solver) RunSegmented(obs []Obs, segStarts []int, cfg Config) (*Estimate, error) {
	est, err := s.runSegmented(obs, segStarts, cfg, false)
	metRuns.Inc()
	switch {
	case errors.Is(err, ErrCanceled):
		metCanceled.Inc()
	case err != nil:
		metFailures.Inc()
	case est.Ambiguous:
		metAmbiguous.Inc()
	}
	if err == nil {
		metResidualDB.Observe(est.ResidualDB)
	}
	if cfg.Loss != LossSquared {
		metIRLSRuns.Inc()
		if err == nil && est.Downweighted > 0 {
			metIRLSDownweighted.Add(int64(est.Downweighted))
		}
	}
	return est, err
}

// growFloats returns buf resized to n, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// --- Nelder–Mead simplex arena -------------------------------------------

// nmMaxDim is the largest parameter count any estimator search uses
// (2-D position, collinear (s, w), or 3-D position).
const nmMaxDim = 3

// nmArena holds the simplex of a Nelder–Mead search in fixed-size
// arrays so a whole minimization runs without allocating. x0 is the
// caller-visible seed buffer: write the start point into x0[:dim] and
// pass that slice to minimize.
type nmArena struct {
	verts [nmMaxDim + 1][nmMaxDim]float64 // simplex vertices
	vals  [nmMaxDim + 1]float64           // objective value per vertex
	cent  [nmMaxDim]float64               // centroid of all but the worst
	cand  [nmMaxDim]float64               // reflection candidate
	cand2 [nmMaxDim]float64               // expansion / contraction candidate
	x0    [nmMaxDim]float64               // seed scratch for callers
}

// sortSimplex orders the dim+1 vertices by ascending objective value
// (insertion sort: at most 4 vertices, and values are almost sorted
// between iterations).
func (a *nmArena) sortSimplex(dim int) {
	for i := 1; i <= dim; i++ {
		for j := i; j > 0 && a.vals[j] < a.vals[j-1]; j-- {
			a.vals[j], a.vals[j-1] = a.vals[j-1], a.vals[j]
			a.verts[j], a.verts[j-1] = a.verts[j-1], a.verts[j]
		}
	}
}

// minimize runs the Nelder–Mead search over len(x0) parameters starting
// from x0 with the given initial simplex scale, entirely inside the
// solver's arena — steady state performs zero heap allocations. The
// objective is cheap and smooth almost everywhere. A non-nil cancel is
// polled every few iterations; cancellation stops the search early and
// returns the best vertex so far (the caller decides whether to discard
// it). The returned slice aliases the arena and is valid only until the
// next minimize call — copy what you need immediately.
func (s *Solver) minimize(f func([]float64) float64, x0 []float64, scale float64, iters int, cancel func() bool) ([]float64, float64) {
	dim := len(x0)
	a := &s.nm
	for d := 0; d <= dim; d++ {
		copy(a.verts[d][:dim], x0)
		if d > 0 {
			a.verts[d][d-1] += scale
		}
		a.vals[d] = f(a.verts[d][:dim])
	}
	evals := dim + 1
	lin := func(dst *[nmMaxDim]float64, av, bv *[nmMaxDim]float64, t float64) {
		for i := 0; i < dim; i++ {
			dst[i] = av[i] + t*(bv[i]-av[i])
		}
	}
	spent := 0
	for it := 0; it < iters; it++ {
		spent = it + 1
		if it%8 == 0 && cancel != nil && cancel() {
			break
		}
		a.sortSimplex(dim)
		// Centroid of all but the worst.
		for i := 0; i < dim; i++ {
			a.cent[i] = 0
		}
		for k := 0; k < dim; k++ {
			for i := 0; i < dim; i++ {
				a.cent[i] += a.verts[k][i]
			}
		}
		for i := 0; i < dim; i++ {
			a.cent[i] /= float64(dim)
		}
		lin(&a.cand, &a.verts[dim], &a.cent, 2) // c + (c − w)
		reflV := f(a.cand[:dim])
		evals++
		switch {
		case reflV < a.vals[0]:
			lin(&a.cand2, &a.verts[dim], &a.cent, 3) // c + 2(c − w)
			expV := f(a.cand2[:dim])
			evals++
			if expV < reflV {
				a.verts[dim], a.vals[dim] = a.cand2, expV
			} else {
				a.verts[dim], a.vals[dim] = a.cand, reflV
			}
		case reflV < a.vals[dim-1]:
			a.verts[dim], a.vals[dim] = a.cand, reflV
		default:
			lin(&a.cand2, &a.verts[dim], &a.cent, 0.5)
			contrV := f(a.cand2[:dim])
			evals++
			if contrV < a.vals[dim] {
				a.verts[dim], a.vals[dim] = a.cand2, contrV
			} else {
				for k := 1; k <= dim; k++ {
					lin(&a.cand2, &a.verts[0], &a.verts[k], 0.5)
					a.verts[k] = a.cand2
					a.vals[k] = f(a.verts[k][:dim])
				}
				evals += dim
			}
		}
		// Convergence: simplex collapsed in value and extent.
		spread := 0.0
		for i := 0; i < dim; i++ {
			spread += math.Abs(a.verts[0][i] - a.verts[dim][i])
		}
		if math.Abs(a.vals[0]-a.vals[dim]) < 1e-10 && spread < 1e-6 {
			break
		}
	}
	metNMCalls.Inc()
	metNMIters.Add(int64(spent))
	metEvals.Add(int64(evals))
	a.sortSimplex(dim)
	return a.verts[0][:dim], a.vals[0]
}
