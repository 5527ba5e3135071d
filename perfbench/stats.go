package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// tailMin is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailMin = 10

// tailRoundOps is the size a timed phase is cut into for the tail: the
// tail is taken per round of about this many ops, and the median round
// is reported. A whole-run tail is the run's tailMin+1-th slowest op,
// so one stall anywhere in the run (a host hiccup, an fsync outlier)
// sets it; the median of per-round tails moves only when most rounds
// move.
const tailRoundOps = 100

// latencySummary is the timing view of one timed phase. Failed ops
// count as infinitely slow, so they can only push the figures up.
type latencySummary struct {
	N       int     // samples (= attempted ops)
	P50     float64 // median over all samples, in the samples' unit
	Rounds  int     // rounds the tail was taken over
	RoundN  int     // samples per round (the last may have more)
	Tail    float64 // median over rounds of each round's tail
	TailPct float64 // which percentile of a round Tail is, 0..100
}

// summarizeLatency summarizes samples, with failed[i] marking an op
// whose latency is replaced by +Inf. Each round's tail is its highest
// percentile with tailMin samples beyond it, so a round needs at least
// tailMin+1 samples.
func summarizeLatency(samples []float64, failed []bool) (latencySummary, error) {
	n := len(samples)
	if n < tailMin+1 {
		return latencySummary{}, fmt.Errorf("need at least %d latency samples for a tail, have %d", tailMin+1, n)
	}
	s := make([]float64, n)
	for i, v := range samples {
		if failed != nil && failed[i] {
			v = math.Inf(1)
		}
		s[i] = v
	}
	rounds := max(1, n/tailRoundOps)
	m := n / rounds
	tails := make([]float64, rounds)
	for r := range tails {
		lo, hi := r*m, (r+1)*m
		if r == rounds-1 {
			hi = n
		}
		round := append([]float64(nil), s[lo:hi]...)
		sort.Float64s(round)
		tails[r] = round[tailIndex(len(round))]
	}
	sort.Float64s(s)
	return latencySummary{
		N:       n,
		P50:     medianSorted(s),
		Rounds:  rounds,
		RoundN:  m,
		Tail:    median(tails),
		TailPct: 100 * float64(m-tailMin) / float64(m),
	}, nil
}

// tailIndex is the index, in n ascending samples, of the highest
// percentile that still has tailMin samples beyond it.
func tailIndex(n int) int { return n - 1 - tailMin }

// chunkRates splits per-op costs into consecutive chunks of equal op
// count and returns each chunk's ops per unit of cost.
func chunkRates(cost []float64, chunks int) []float64 {
	rates := make([]float64, 0, chunks)
	for c := 0; c < chunks; c++ {
		lo, hi := chunkBounds(len(cost), chunks, c)
		sum := 0.0
		for _, v := range cost[lo:hi] {
			sum += v
		}
		rates = append(rates, float64(hi-lo)/sum)
	}
	return rates
}

// chunkBounds is the op range [lo, hi) of chunk c of n ops.
func chunkBounds(n, chunks, c int) (lo, hi int) { return c * n / chunks, (c + 1) * n / chunks }

// medianSorted is the median of ascending samples (mean of the middle
// two for an even count).
func medianSorted(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// median is medianSorted over an unsorted copy.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return medianSorted(s)
}

// quantile is the nearest-rank q-quantile, 0 < q <= 1.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(k, 0)]
}

// ratio is num/den, or 0 when there is nothing to divide by (a layer
// the workload does not run).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tally counts ops against attempts: an op that errors, is refused, or
// comes back incomplete is attempted and failed, never dropped.
type tally struct {
	attempted, failed int
}

func (t *tally) record(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// validName reports whether s is a legal metric or workload name: a
// letter or digit first, then at most 63 more letters, digits, '_',
// '.' or '-'.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || c != '_' && c != '.' && c != '-') {
			return false
		}
	}
	return true
}

// digest accumulates an order-sensitive FNV-1a hash of exact values:
// floats by their bit patterns, so two runs agree only when every bit
// does.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} } // FNV-1a offset basis

func (d *digest) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= v & 0xff
		d.h *= 1099511628211
		v >>= 8
	}
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digest) int(v int)     { d.u64(uint64(int64(v))) }

func (d *digest) str(s string) {
	d.int(len(s))
	for i := 0; i < len(s); i++ {
		d.h ^= uint64(s[i])
		d.h *= 1099511628211
	}
}

func (d *digest) sum() string { return fmt.Sprintf("%016x", d.h) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
