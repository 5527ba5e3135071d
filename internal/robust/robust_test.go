package robust

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"

	"locble/internal/rng"
)

func TestMedianInPlace(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5}, 5},
		{nil, math.NaN()},
	}
	for _, c := range cases {
		got := MedianInPlace(append([]float64(nil), c.in...))
		if math.IsNaN(c.want) {
			if !math.IsNaN(got) {
				t.Errorf("MedianInPlace(%v) = %v, want NaN", c.in, got)
			}
			continue
		}
		if got != c.want {
			t.Errorf("MedianInPlace(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMADIntoDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7}
	orig := append([]float64(nil), xs...)
	med, mad, _ := MADInto(xs, nil)
	for i := range xs {
		if xs[i] != orig[i] {
			t.Fatalf("MADInto mutated input at %d", i)
		}
	}
	if med != 5 {
		t.Errorf("median = %v, want 5", med)
	}
	if mad != 2 { // deviations {0,4,4,2,2} → median 2
		t.Errorf("mad = %v, want 2", mad)
	}
}

func TestMADIntoReusesScratch(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	_, _, scratch := MADInto(xs, nil)
	if n := testing.AllocsPerRun(100, func() {
		_, _, scratch = MADInto(xs, scratch)
	}); n != 0 {
		t.Errorf("MADInto allocates %v per call on a warm scratch, want 0", n)
	}
}

func TestScaleFloors(t *testing.T) {
	if s := Scale(0, 0.5); s != 0.5 {
		t.Errorf("Scale(0) = %v, want floor 0.5", s)
	}
	if s := Scale(2, 0.5); math.Abs(s-2*MADScaleFactor) > 1e-12 {
		t.Errorf("Scale(2) = %v, want %v", s, 2*MADScaleFactor)
	}
	if s := Scale(math.NaN(), 0.5); s != 0.5 {
		t.Errorf("Scale(NaN) = %v, want floor", s)
	}
}

func TestHuberLimits(t *testing.T) {
	// Inside the quadratic zone: weight 1, rho = r² exactly.
	if w := HuberWeight(1, 2, 1.345); w != 1 {
		t.Errorf("inside-zone weight = %v, want 1", w)
	}
	r := 1.7
	if rho := HuberRho(r, 2, 1.345); rho != r*r {
		t.Errorf("inside-zone rho = %v, want %v bit-exact", rho, r*r)
	}
	// Far outside: weight → kσ/|r|, rho grows linearly.
	w := HuberWeight(100, 1, 1.345)
	if math.Abs(w-1.345/100) > 1e-12 {
		t.Errorf("outside weight = %v", w)
	}
	if rho1, rho2 := HuberRho(100, 1, 1.345), HuberRho(101, 1, 1.345); rho2-rho1 > 3 {
		t.Errorf("huber tail not linear: Δ=%v", rho2-rho1)
	}
}

func TestTukeyRejectsGross(t *testing.T) {
	if w := TukeyWeight(100, 1, 4.685); w != 0 {
		t.Errorf("gross outlier weight = %v, want 0", w)
	}
	if w := TukeyWeight(0, 1, 4.685); w != 1 {
		t.Errorf("zero-residual weight = %v, want 1", w)
	}
	// Bounded loss: a 10× farther outlier adds nothing.
	k := 4.685 * 1.0
	if rho := TukeyRho(100, 1, 4.685); rho != k*k/3 {
		t.Errorf("saturated rho = %v, want %v", rho, k*k/3)
	}
	// Weights decrease monotonically in |r|.
	prev := 1.0
	for r := 0.0; r < 6; r += 0.25 {
		w := TukeyWeight(r, 1, 4.685)
		if w > prev+1e-12 {
			t.Fatalf("Tukey weight not monotone at r=%v", r)
		}
		prev = w
	}
}

func TestRobustMaxSkipsImpulse(t *testing.T) {
	// A gently varying series with one wild spike: the robust maximum
	// must pick the honest crest, not the impulse.
	xs := make([]float64, 60)
	for i := range xs {
		xs[i] = -70 + 8*math.Sin(float64(i)/10) // crest ≈ −62
	}
	xs[30] = -20 // impulse
	idx, v, _ := RobustMax(xs, 0.95, 3, nil)
	if idx == 30 {
		t.Fatalf("robust max picked the impulse")
	}
	if v > -55 || v < -66 {
		t.Errorf("robust max = %v, want near the honest crest", v)
	}
	// Without the impulse the result is the plain maximum.
	xs[30] = -70
	idx2, v2, _ := RobustMax(xs, 0.95, 3, nil)
	max, maxi := math.Inf(-1), -1
	for i, x := range xs {
		if x > max {
			max, maxi = x, i
		}
	}
	if idx2 != maxi || v2 != max {
		t.Errorf("clean robust max = (%d, %v), want plain max (%d, %v)", idx2, v2, maxi, max)
	}
}

func TestRobustMaxEmpty(t *testing.T) {
	idx, v, _ := RobustMax(nil, 0.95, 3, nil)
	if idx != -1 || !math.IsNaN(v) {
		t.Errorf("empty RobustMax = (%d, %v)", idx, v)
	}
}

// sortMedian is the sort-based reference the selection kernel must
// reproduce: sort a copy with sort.Float64s and read the middle.
func sortMedian(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sortMAD is the sort-based reference median and MAD.
func sortMAD(xs []float64) (median, mad float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	median = sortMedian(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - median)
	}
	return median, sortMedian(dev)
}

// sameOrderStat reports whether got is the value the sort-based
// reference produced: the same bits, or NaN for NaN. The one freedom is
// a signed zero: −0 and +0 are equal under sort.Float64s's order, so
// which of them the sort leaves at a position depends on its swap
// sequence, not on the data; when the input holds both, any zero
// matches a zero.
func sameOrderStat(got, want float64, in []float64) bool {
	if math.IsNaN(got) || math.IsNaN(want) {
		return math.IsNaN(got) && math.IsNaN(want)
	}
	if math.Float64bits(got) == math.Float64bits(want) {
		return true
	}
	if got != 0 || want != 0 {
		return false
	}
	var pos, neg bool
	for _, x := range in {
		if x == 0 {
			if math.Signbit(x) {
				neg = true
			} else {
				pos = true
			}
		}
	}
	return pos && neg
}

// sortedBits returns the bit patterns of xs in ascending order: a
// multiset fingerprint that tells signed zeros and NaN payloads apart.
func sortedBits(xs []float64) []uint64 {
	b := make([]uint64, len(xs))
	for i, x := range xs {
		b[i] = math.Float64bits(x)
	}
	slices.Sort(b)
	return b
}

// checkAgainstSort runs MedianInPlace, MADInto and selection at index k
// on xs and compares each with the sort-based reference.
func checkAgainstSort(t *testing.T, label string, xs []float64, k int) {
	t.Helper()
	in := append([]float64(nil), xs...)

	buf := append([]float64(nil), xs...)
	if got, want := MedianInPlace(buf), sortMedian(in); !sameOrderStat(got, want, in) {
		t.Fatalf("%s: MedianInPlace = %v (%#x), sort says %v (%#x); input %v",
			label, got, math.Float64bits(got), want, math.Float64bits(want), in)
	}
	if !slices.Equal(sortedBits(buf), sortedBits(in)) {
		t.Fatalf("%s: MedianInPlace did not permute its input; input %v", label, in)
	}

	med, mad, _ := MADInto(xs, nil)
	wmed, wmad := sortMAD(in)
	if !sameOrderStat(med, wmed, in) {
		t.Fatalf("%s: MADInto median = %v, sort says %v; input %v", label, med, wmed, in)
	}
	// Deviations are absolute values, so a signed-zero median cannot
	// change them: the MAD must match bit for bit (or both be NaN).
	if math.Float64bits(mad) != math.Float64bits(wmad) && !(math.IsNaN(mad) && math.IsNaN(wmad)) {
		t.Fatalf("%s: MADInto mad = %v (%#x), sort says %v (%#x); input %v",
			label, mad, math.Float64bits(mad), wmad, math.Float64bits(wmad), in)
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(in[i]) {
			t.Fatalf("%s: MADInto mutated its input at %d", label, i)
		}
	}

	if len(xs) > 0 {
		sorted := append([]float64(nil), in...)
		sort.Float64s(sorted)
		buf = append(buf[:0], in...)
		if got := selectInPlace(buf, k); !sameOrderStat(got, sorted[k], in) {
			t.Fatalf("%s: order statistic %d = %v, sort says %v; input %v", label, k, got, sorted[k], in)
		}
	}
}

// TestMedianMatchesSort is the selection kernel's property test: on
// seeded inputs of every length 0–1025 and a range of shapes (Gaussian,
// heavy duplicates, all equal, sorted, reverse-sorted, and a mix of
// ±Inf, NaN and ±0), MedianInPlace, MADInto and the order statistic
// RobustMax reads return what the sort-based reference returns.
func TestMedianMatchesSort(t *testing.T) {
	src := rng.New(42)
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1)}
	shapes := []struct {
		name string
		gen  func(i, n int) float64
	}{
		{"gaussian", func(i, n int) float64 { return src.Normal(0, 3) }},
		{"duplicates", func(i, n int) float64 { return float64(src.Intn(5)) - 2 }},
		{"all-equal", func(i, n int) float64 { return -61.5 }},
		{"sorted", func(i, n int) float64 { return float64(i/3) * 0.5 }},
		{"reverse", func(i, n int) float64 { return float64(n-i) * 0.25 }},
		{"specials", func(i, n int) float64 {
			if src.Bool(0.3) {
				return specials[src.Intn(len(specials))]
			}
			return float64(src.Intn(7)) - 3
		}},
	}
	for n := 0; n <= 1025; n++ {
		for _, sh := range shapes {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = sh.gen(i, n)
			}
			k := 0
			if n > 0 {
				k = src.Intn(n)
			}
			checkAgainstSort(t, sh.name, xs, k)
		}
	}
}

// TestQuickselectSortFallback pins the depth-limit fallback, which
// the pivot sampling keeps real data from reaching: with the depth
// budget cut to 0–3 rounds, the selection must still return the sort's
// order statistic at every probed index, first and last included, with
// the range correctly split around it.
func TestQuickselectSortFallback(t *testing.T) {
	src := rng.New(7)
	for _, n := range []int{17, 40, 255, 1024} {
		in := make([]float64, n)
		for i := range in {
			in[i] = float64(src.Intn(n / 2))
		}
		sorted := append([]float64(nil), in...)
		sort.Float64s(sorted)
		for depth := 0; depth <= 3; depth++ {
			for _, k := range []int{0, src.Intn(n), n / 2, n - 1} {
				xs := append([]float64(nil), in...)
				if got := quickselect(xs, 0, n-1, k, depth); got != sorted[k] {
					t.Fatalf("n=%d depth=%d: order statistic %d = %v, sort says %v", n, depth, k, got, sorted[k])
				}
				for i, x := range xs {
					if (i < k && x > xs[k]) || (i > k && x < xs[k]) {
						t.Fatalf("n=%d depth=%d k=%d: xs[%d]=%v is on the wrong side of %v", n, depth, k, i, x, xs[k])
					}
				}
			}
		}
	}
}

// FuzzMedianMatchesSort drives the same comparison with arbitrary
// inputs. In raw mode every 8 bytes are one float64 (any bit pattern:
// NaN payloads, ±Inf, ±0, subnormals); in quantized mode every byte is
// one value from a small alphabet with specials, so duplicates abound.
// Inputs longer than 256 bytes are skipped: Go's input minimizer is
// quadratic in the input length, and the property test already covers
// every length up to 1025.
func FuzzMedianMatchesSort(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte{3, 1, 2, 2, 0x7f, 0x80, 0x7e, 0x81}, true)
	f.Add([]byte("0123456789abcdef0123456789abcdef"), false)
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 4}, true)
	f.Fuzz(func(t *testing.T, data []byte, quantized bool) {
		if len(data) > 256 {
			return
		}
		var xs []float64
		if quantized {
			for _, b := range data {
				switch b {
				case 0x7f:
					xs = append(xs, math.NaN())
				case 0x7e:
					xs = append(xs, math.Inf(1))
				case 0x81:
					xs = append(xs, math.Inf(-1))
				case 0x80:
					xs = append(xs, math.Copysign(0, -1))
				default:
					xs = append(xs, float64(int8(b))/4)
				}
			}
		} else {
			for len(data) >= 8 {
				xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
				data = data[8:]
			}
		}
		checkAgainstSort(t, "fuzz", xs, len(xs)/3)
	})
}
