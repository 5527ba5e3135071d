package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	// Below two rounds' worth of samples the tail is the whole run's.
	for _, n := range []int{11, 40, 97, 2*tailRoundOps - 1} {
		samples := make([]float64, n)
		for i := range samples {
			samples[n-1-i] = float64(i) // descending input: the summary must sort
		}
		ls, err := summarizeLatency(samples, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		beyond := 0
		for _, v := range samples {
			if v > ls.Tail {
				beyond++
			}
		}
		if ls.Rounds != 1 || beyond != tailMin {
			t.Errorf("n=%d: %d rounds, %d samples beyond the tail, want 1 round and %d", n, ls.Rounds, beyond, tailMin)
		}
		if want := 100 * float64(n-tailMin) / float64(n); math.Abs(ls.TailPct-want) > 1e-9 {
			t.Errorf("n=%d: tail percentile %.4f, want %.4f", n, ls.TailPct, want)
		}
	}
	if _, err := summarizeLatency(make([]float64, tailMin), nil); err == nil {
		t.Error("a tail over too few samples was accepted")
	}

	// Ten rounds of 100: round r holds r*1000+0..99, so each round's
	// tail is r*1000+89 and the median round sits between rounds 4 and 5.
	samples := make([]float64, 10*tailRoundOps)
	for i := range samples {
		r, k := i/tailRoundOps, (i*37)%tailRoundOps // k: a permutation within the round
		samples[i] = float64(r*1000 + k)
	}
	ls, err := summarizeLatency(samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Rounds != 10 || ls.RoundN != tailRoundOps || ls.Tail != 4589 || ls.TailPct != 90 {
		t.Errorf("rounds %d of %d, tail p%v = %v; want 10 of %d, p90 = 4589", ls.Rounds, ls.RoundN, ls.TailPct, ls.Tail, tailRoundOps)
	}

	// A stall confined to one round moves that round only.
	for i := range samples {
		samples[i] = 1
	}
	for i := 0; i < 2*tailMin; i++ {
		samples[3*tailRoundOps+i] = 1000
	}
	if ls, _ := summarizeLatency(samples, nil); ls.Tail != 1 {
		t.Errorf("one stalled round set the tail to %v, want 1", ls.Tail)
	}
}

func TestChunkRates(t *testing.T) {
	cost := []float64{1, 1, 2, 2, 4, 4, 100, 100, 1, 1}
	got := chunkRates(cost, 5)
	want := []float64{1, 0.5, 0.25, 0.01, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("chunkRates = %v, want %v", got, want)
		}
	}
	if m := median(got); m != 0.5 {
		t.Errorf("median chunk rate %v, want 0.5", m)
	}
	bounds := []time.Duration{0}
	for c := 1; c <= chunks; c++ {
		bounds = append(bounds, time.Duration(c)*40*time.Millisecond) // 40 ms per 4-op chunk
	}
	if got := chunkCPU(bounds, 4*chunks); got != 10 {
		t.Errorf("chunkCPU = %v ms per op, want 10", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := quantile([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
}

func TestFailuresCountAgainstAttempts(t *testing.T) {
	var tl tally
	for i := 0; i < 20; i++ {
		tl.record(i%5 != 0) // every fifth op fails
	}
	if tl.attempted != 20 || tl.failed != 4 {
		t.Fatalf("tally = %+v, want 20 attempted, 4 failed", tl)
	}

	// A failed op is slower than any success: its fast latency must not
	// pull the percentiles down.
	samples := make([]float64, 30)
	failed := make([]bool, 30)
	for i := range samples {
		samples[i] = 10
	}
	for i := 0; i < 16; i++ {
		samples[i], failed[i] = 0.001, true
	}
	ls, err := summarizeLatency(samples, failed)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(ls.P50, 1) || !math.IsInf(ls.Tail, 1) {
		t.Errorf("with 16 of 30 ops failed, p50 %v and tail %v should be +Inf", ls.P50, ls.Tail)
	}
	if samples[0] != 0.001 {
		t.Error("summarizeLatency modified its input")
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "op", Start: at(0), End: at(100), Parent: -1},
		{Name: "push", Start: at(10), End: at(90), Parent: 0},
		// Two overlapping children of push ([20,50] and [40,60] cover
		// 40 ms) and one running past its end (clipped to [85,90]).
		{Name: "save", Start: at(20), End: at(50), Parent: 1},
		{Name: "save", Start: at(40), End: at(60), Parent: 1},
		{Name: "fsync", Start: at(85), End: at(120), Parent: 1},
		{Name: "orphan", Start: at(0), End: at(5), Parent: -1},
	}
	self, covered := selfTimes(spans)
	want := []time.Duration{20, 35, 30, 20, 35, 5}
	for i, w := range want {
		if self[i] != w*time.Millisecond {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, self[i], w*time.Millisecond)
		}
		if d := spans[i].End.Sub(spans[i].Start); self[i]+covered[i] != d {
			t.Errorf("span %d: self %v + covered %v != duration %v", i, self[i], covered[i], d)
		}
	}
	agg := aggregate(spans, -1)
	if agg["save"].Count != 2 || agg["save"].Total != 50*time.Millisecond {
		t.Errorf("save aggregate = %+v", *agg["save"])
	}
}

func TestTracerAttributesWrapperSpansToCurrentOp(t *testing.T) {
	tr := newTracer()
	root := tr.enter("op", 7)
	call := tr.enter("router.PushBatch", 7)
	now := time.Now()
	tr.child("durable.Save", now, now.Add(time.Millisecond))
	tr.leave(call)
	tr.leave(root)
	tr.child("durable.Save", now, now.Add(time.Millisecond))
	sp := tr.snapshot()
	if sp[2].Parent != call.idx || sp[2].Op != 7 {
		t.Errorf("wrapper span under %d for op %d, want under %d for op 7", sp[2].Parent, sp[2].Op, call.idx)
	}
	if sp[3].Parent != -1 || sp[3].Op != -1 {
		t.Errorf("span after the op closed hangs under %d for op %d, want a root outside any op", sp[3].Parent, sp[3].Op)
	}

	var off *tracer // the untraced run
	s := off.enter("op", 1)
	off.child("durable.Save", now, now)
	off.leave(s)
	if off.snapshot() != nil {
		t.Error("a nil tracer recorded spans")
	}
}

func TestMetricNames(t *testing.T) {
	good := []string{"setup_s", "latency_p50_ms", "estimate.nm_iters_per_call", "durable.wal_bytes_per_save", "9x", strings.Repeat("a", 64)}
	bad := []string{"", "_lead", ".lead", "-lead", "has space", "slash/no", "ünï", strings.Repeat("a", 65)}
	for _, n := range good {
		if !validName(n) {
			t.Errorf("validName(%q) = false, want true", n)
		}
	}
	for _, n := range bad {
		if validName(n) {
			t.Errorf("validName(%q) = true, want false", n)
		}
	}
	// Every name the benchmark can print must pass.
	p := &phase{
		ops: 40, lat: make([]float64, 40), failed: make([]bool, 40),
		setups: []time.Duration{time.Second}, wall: time.Second,
		cpuBounds: make([]time.Duration, chunks+1),
	}
	e2e, _, err := endToEnd(p)
	if err != nil {
		t.Fatal(err)
	}
	names := append([]string(nil), e2e.names...)
	names = append(names, perLayer(p).names...)
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, n := range names {
		if !validName(n) {
			t.Errorf("benchmark prints invalid name %q", n)
		}
	}
}

func TestDigestSeesEveryBit(t *testing.T) {
	a, b := newDigest(), newDigest()
	a.f64(1.0)
	b.f64(math.Nextafter(1.0, 2))
	if a.sum() == b.sum() {
		t.Error("digests of adjacent floats collide")
	}
	c, d := newDigest(), newDigest()
	c.str("ab")
	c.str("c")
	d.str("a")
	d.str("bc")
	if c.sum() == d.sum() {
		t.Error("digest is blind to string boundaries")
	}
}
