// Package robust provides the shared robust-statistics primitives the
// pipeline's hostile-data defences are built on: the MAD (median
// absolute deviation) scale estimator, Huber and Tukey-bisquare
// M-estimator weight/loss functions, and an impulse-resistant maximum.
//
// Every function is allocation-free on warm buffers: callers that run
// on the estimator's hot path pass their own scratch slices (the
// estimate.Solver owns arenas for exactly this), so an IRLS iteration
// costs arithmetic only. The same helpers back the proximity fusion's
// "robust maximum" and the clone-detector's deviation scale, so every
// consumer agrees on what "an outlier" means.
package robust

import (
	"math"
	"math/bits"
	"slices"
)

// MADScaleFactor converts a median absolute deviation into a
// consistent estimate of the Gaussian standard deviation:
// σ ≈ 1.4826·MAD (the reciprocal of Φ⁻¹(3/4)).
const MADScaleFactor = 1.4826

// MedianInPlace partially orders xs in place and returns its median
// (the mean of the two central order statistics for even lengths). It
// returns NaN for an empty slice. The central order statistics are
// found by linear-time selection, and they are exactly the elements
// sort.Float64s would put at those positions (NaN orders below every
// number), so the result is the same float64 a sort-based median
// yields. On return xs is a permutation of its input, ordered only
// around the middle. No allocation: the caller donates the slice.
func MedianInPlace(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	k := n / 2
	hi := selectInPlace(xs, k)
	if n%2 == 1 {
		return hi
	}
	// Selection left every element that sorts before index k in xs[:k],
	// so the lower middle is the largest of them under the sort order.
	lo := math.NaN()
	for _, x := range xs[:k] {
		if x > lo || lo != lo {
			lo = x
		}
	}
	return (lo + hi) / 2
}

// selectInPlace reorders xs so that xs[k] holds the element
// sort.Float64s would place at index k, every element before it sorts
// no later and every element after it no earlier, and returns xs[k].
// NaNs are first moved to the front (sort.Float64s orders them below
// everything); the rest is a quickselect with median-of-three pivots
// that sorts whatever range is left after 2·log₂n partitioning rounds,
// so its worst case is the sort's O(n log n) and its typical cost is
// linear.
func selectInPlace(xs []float64, k int) float64 {
	nan := 0
	for i, x := range xs {
		if x != x {
			xs[i], xs[nan] = xs[nan], x
			nan++
		}
	}
	if k < nan {
		return xs[k]
	}
	return quickselect(xs, nan, len(xs)-1, k, 2*bits.Len(uint(len(xs)-nan)))
}

// quickselect runs selectInPlace's partitioning on the NaN-free range
// xs[lo..hi], which holds index k, giving up after depth rounds.
func quickselect(xs []float64, lo, hi, k, depth int) float64 {
	for ; hi-lo > 16; depth-- {
		if depth == 0 {
			slices.Sort(xs[lo : hi+1])
			return xs[k]
		}
		// Median of three samples, taken at the quartiles and the middle
		// so that organ-pipe and sawtooth inputs still split evenly; the
		// samples are moved to lo, mid and hi and ordered there, so
		// xs[lo] ≤ pivot ≤ xs[hi] bounds both partition scans below.
		mid := lo + (hi-lo)/2
		q := (hi - lo) / 4
		xs[lo], xs[lo+q] = xs[lo+q], xs[lo]
		xs[hi], xs[hi-q] = xs[hi-q], xs[hi]
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		p := xs[mid]
		// Hoare partition; both scans stop on elements equal to the
		// pivot, which keeps runs of duplicates balanced.
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for p < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Now xs[lo..j] ≤ p ≤ xs[i..hi], and everything between equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	// Short range: insertion sort finishes it.
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs[k]
}

// MADInto computes the median and the median absolute deviation of xs
// using scratch as working storage. scratch is resized (reallocating
// only when its capacity is insufficient) and returned so callers can
// retain the grown buffer; on return it holds the absolute deviations,
// partially ordered (see MedianInPlace). xs itself is not modified.
func MADInto(xs, scratch []float64) (median, mad float64, grown []float64) {
	n := len(xs)
	if cap(scratch) < n {
		scratch = make([]float64, n)
	}
	scratch = scratch[:n]
	if n == 0 {
		return math.NaN(), math.NaN(), scratch
	}
	copy(scratch, xs)
	median = MedianInPlace(scratch)
	for i, x := range xs {
		scratch[i] = math.Abs(x - median)
	}
	mad = MedianInPlace(scratch)
	return median, mad, scratch
}

// Scale converts a MAD into the consistent σ estimate, flooring the
// result at floor so a degenerate sample (all residuals identical)
// never yields a zero scale. Real BLE RSS noise never drops below a
// fraction of a dB, so estimator callers floor at ~0.5 dB.
func Scale(mad, floor float64) float64 {
	s := MADScaleFactor * mad
	if s < floor || math.IsNaN(s) {
		return floor
	}
	return s
}

// HuberWeight is the Huber M-estimator's IRLS weight for a residual r
// at scale σ with tuning constant delta (in σ units): 1 inside the
// quadratic zone, delta·σ/|r| outside. delta = 1.345 gives 95%
// efficiency at the Gaussian model.
func HuberWeight(r, sigma, delta float64) float64 {
	a := math.Abs(r)
	k := delta * sigma
	if a <= k {
		return 1
	}
	return k / a
}

// HuberRho is the Huber loss evaluated so that the quadratic zone is
// exactly r² — bit-identical to the squared loss when |r| ≤ delta·σ,
// which makes "Huber with a huge delta" reproduce least squares
// bit-exactly. Outside the zone the loss continues linearly:
// k·(2|r| − k) with k = delta·σ.
func HuberRho(r, sigma, delta float64) float64 {
	a := math.Abs(r)
	k := delta * sigma
	if a <= k {
		return r * r
	}
	return k * (2*a - k)
}

// TukeyWeight is the Tukey-bisquare IRLS weight: (1 − (r/(c·σ))²)²
// inside the support, 0 beyond it — gross outliers are rejected
// entirely rather than merely down-weighted. c = 4.685 gives 95%
// efficiency at the Gaussian model.
func TukeyWeight(r, sigma, c float64) float64 {
	k := c * sigma
	if k <= 0 {
		return 0
	}
	u := r / k
	if u <= -1 || u >= 1 {
		return 0
	}
	v := 1 - u*u
	return v * v
}

// TukeyRho is the Tukey-bisquare loss, normalized so its quadratic
// behaviour near zero matches r² (ρ(r) ≈ r² for |r| ≪ c·σ) and it
// saturates at k²/3 beyond the support — a gross outlier contributes a
// bounded amount however far it sits.
func TukeyRho(r, sigma, c float64) float64 {
	k := c * sigma
	if k <= 0 {
		return 0
	}
	u := r / k
	if u <= -1 || u >= 1 {
		return k * k / 3
	}
	v := 1 - u*u
	return k * k / 3 * (1 - v*v*v)
}

// RobustMax returns the index and value of the largest sample in xs
// that is corroborated by the bulk of the series: the strongest reading
// no more than guard·σ above the topQ quantile, where σ is the
// MAD-derived scale of the series. An isolated impulse (one spiked
// sample far above everything else) is skipped; the honest maximum of
// a close approach — which the surrounding samples track — is kept.
// scratch is working storage (grown as needed) and is returned; the
// chosen index refers to xs. Empty input returns (-1, NaN, scratch).
func RobustMax(xs []float64, topQ, guard float64, scratch []float64) (idx int, v float64, grown []float64) {
	n := len(xs)
	if n == 0 {
		return -1, math.NaN(), scratch
	}
	_, mad, scratch := MADInto(xs, scratch)
	sigma := Scale(mad, 0.25)
	if topQ <= 0 || topQ >= 1 {
		topQ = 0.95
	}
	// scratch holds |x − median| values; refill it with xs and select
	// the top quantile's order statistic.
	copy(scratch, xs)
	q := selectInPlace(scratch, int(topQ*float64(n-1)))
	cap_ := q + guard*sigma
	idx, v = -1, math.Inf(-1)
	for i, x := range xs {
		if x > v && x <= cap_ {
			idx, v = i, x
		}
	}
	if idx < 0 {
		// Every sample above the cap (degenerate tiny series): fall back
		// to the plain maximum.
		for i, x := range xs {
			if x > v {
				idx, v = i, x
			}
		}
	}
	return idx, v, scratch
}
