// Command perfbench is locble's benchmark: four closed-loop workloads
// over the offline locate pipeline, the robust (IRLS) locate path,
// routed streaming tracking and checkpoint churn on the durable store.
// One run measures one workload, checks its outputs, and prints every
// metric by name and unit; the last line of standard output is the
// machine-readable result. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"locble/internal/core"
	"locble/internal/fleet"
	"locble/internal/obs"
	"locble/internal/router"
)

// processStart anchors the first set-up's clock at process start.
var processStart = time.Now()

// setupsPerRun is how many times each run sets its workload up; setup_s
// is their median. All but the last are torn down again, and all must
// agree on their input and warm-up output digests.
const setupsPerRun = 3

// minOps keeps the tail percentile above the median however short the
// run: it needs tailMin samples beyond it.
const minOps = 4 * tailMin

// instance is one set-up workload, ready for ops. op(i) runs op i (the
// warm-up ops first, then the timed ones) and reports whether it fully
// succeeded.
type instance interface {
	op(i int) bool
	startTimed()
	sources() sources
	inputDigest() string
	outputDigest() string
	outputs() string
	placement() []int // beacons each node served; nil without nodes
	errorsM() []float64
	check() error
	close() error
}

// workload describes one benchmark workload. opsPerSecond times
// --seconds fixes the timed op count, so every run with the same
// --seconds does identical work.
type workload struct {
	name         string
	opsPerSecond int
	warmup       int
	setup        func(seed int64, totalOps int, tr *tracer, st *storeStats, workdir string) (instance, error)
}

var workloads = []workload{
	{
		name: "locate-batch", opsPerSecond: 120, warmup: 2,
		setup: func(seed int64, _ int, tr *tracer, _ *storeStats, _ string) (instance, error) {
			return setupLocate(locateParams{walks: 512}, seed, tr)
		},
	},
	{
		name: "locate-robust", opsPerSecond: 8, warmup: 1,
		setup: func(seed int64, _ int, tr *tracer, _ *storeStats, _ string) (instance, error) {
			return setupLocate(locateParams{robust: true, walks: 80}, seed, tr)
		},
	},
	{
		name: "track-routed", opsPerSecond: 40, warmup: 16,
		setup: func(seed int64, total int, tr *tracer, st *storeStats, _ string) (instance, error) {
			return setupRouted(seed, total, tr, st)
		},
	},
	{
		name: "track-churn", opsPerSecond: 400, warmup: 2 * churnCohorts,
		setup: func(seed int64, total int, tr *tracer, st *storeStats, dir string) (instance, error) {
			return setupChurn(seed, total, tr, st, dir)
		},
	},
}

// sources are the program's metric registries a workload exposes.
type sources struct {
	engines []*core.Engine
	fleets  []*fleet.Fleet
	router  *router.Router
}

// snap is every registry and runtime counter at one instant.
type snap struct {
	at      time.Time
	cpu     time.Duration
	mem     runtime.MemStats
	def     obs.Snapshot
	engines []obs.Snapshot
	fleets  []obs.Snapshot
	router  obs.Snapshot
}

func takeSnap(src sources) snap {
	s := snap{def: obs.Default.Snapshot()}
	for _, e := range src.engines {
		s.engines = append(s.engines, e.Metrics())
	}
	for _, f := range src.fleets {
		s.fleets = append(s.fleets, f.Metrics())
	}
	if src.router != nil {
		s.router = src.router.Metrics()
	}
	runtime.ReadMemStats(&s.mem)
	s.cpu = cpuTime()
	s.at = time.Now()
	return s
}

func counterDelta(a, b []obs.Snapshot, name string) float64 {
	d := int64(0)
	for i := range b {
		d += b[i].Counters[name] - a[i].Counters[name]
	}
	return float64(d)
}

// histDelta is the count and sum a histogram (or timer) gained.
func histDelta(a, b obs.Snapshot, name string) (count, sum float64) {
	return float64(b.Histograms[name].Count - a.Histograms[name].Count),
		b.Histograms[name].Sum - a.Histograms[name].Sum
}

func histDeltaAll(a, b []obs.Snapshot, name string) (count, sum float64) {
	for i := range b {
		c, s := histDelta(a[i], b[i], name)
		count += c
		sum += s
	}
	return count, sum
}

// phase is one full pass of a workload: its set-ups, its timed ops and
// its checks.
type phase struct {
	setups      []time.Duration
	inDigests   []string
	warmDigests []string
	lat         []float64 // ms per timed op
	failed      []bool
	tally       tally
	wall        time.Duration
	before      snap
	after       snap
	rss         float64
	cpuBounds   []time.Duration // process CPU time at each chunk boundary
	outDigest   string
	outputs     string
	placement   []int
	errs        []float64
	checkErr    error
	spans       []span
	warmup, ops int
	storeStats  *storeStats
	store       storeTotals // storeStats at the end of the timed phase
}

// runPhase sets the workload up setupsPerRun times, times ops on the
// last set-up and checks the outputs. traced installs the tracer and
// the store wrappers.
func runPhase(w workload, seed int64, ops int, traced bool, workdir string, fromProcessStart bool) (*phase, error) {
	p := &phase{warmup: w.warmup, ops: ops}
	var tr *tracer
	if traced {
		tr = newTracer()
		p.storeStats = &storeStats{}
	}
	total := w.warmup + ops
	var in instance
	for s := 0; s < setupsPerRun; s++ {
		start := time.Now()
		if s == 0 && fromProcessStart {
			start = processStart
		}
		sc := tr.enter("setup", -1)
		inst, err := w.setup(seed, total, tr, p.storeStats, workdir)
		if err != nil {
			tr.leave(sc)
			return nil, fmt.Errorf("set-up: %w", err)
		}
		for i := 0; i < w.warmup; i++ {
			if !inst.op(i) {
				tr.leave(sc)
				inst.close()
				return nil, fmt.Errorf("warm-up op %d failed", i)
			}
		}
		tr.leave(sc)
		p.setups = append(p.setups, time.Since(start))
		p.inDigests = append(p.inDigests, inst.inputDigest())
		p.warmDigests = append(p.warmDigests, inst.outputDigest())
		if s < setupsPerRun-1 {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("tear-down: %w", err)
			}
			// Collect the torn-down set-up now, so the peak RSS and the
			// timed phase's GC cycles do not depend on when its garbage
			// would otherwise have been found.
			runtime.GC()
			continue
		}
		in = inst
	}
	defer in.close()

	runtime.GC()
	in.startTimed()
	if p.storeStats != nil {
		p.storeStats.reset()
	}
	p.lat = make([]float64, 0, ops)
	p.failed = make([]bool, 0, ops)
	p.before = takeSnap(in.sources())
	p.cpuBounds = append(make([]time.Duration, 0, chunks+1), p.before.cpu)
	for i := w.warmup; i < total; i++ {
		if c := len(p.cpuBounds); c < chunks {
			if lo, _ := chunkBounds(ops, chunks, c); i-w.warmup == lo {
				p.cpuBounds = append(p.cpuBounds, cpuTime())
			}
		}
		sc := tr.enter("op", i)
		t0 := time.Now()
		ok := in.op(i)
		d := time.Since(t0)
		tr.leave(sc)
		p.lat = append(p.lat, float64(d)/1e6)
		p.failed = append(p.failed, !ok)
		p.tally.record(ok)
	}
	p.after = takeSnap(in.sources())
	p.cpuBounds = append(p.cpuBounds, p.after.cpu)
	p.wall = p.after.at.Sub(p.before.at)
	p.rss = maxRSSMB()
	p.store = p.storeStats.totals()
	p.spans = tr.snapshot()

	p.checkErr = in.check()
	if p.checkErr == nil {
		p.checkErr = p.determinism()
	}
	p.outDigest = in.outputDigest()
	p.outputs = in.outputs()
	p.placement = in.placement()
	p.errs = in.errorsM()
	return p, nil
}

// determinism requires every set-up of the run to have generated the
// same inputs and produced the same warm-up outputs.
func (p *phase) determinism() error {
	for s := 1; s < len(p.inDigests); s++ {
		if p.inDigests[s] != p.inDigests[0] {
			return fmt.Errorf("set-up %d generated inputs %s, set-up 0 generated %s", s, p.inDigests[s], p.inDigests[0])
		}
		if p.warmDigests[s] != p.warmDigests[0] {
			return fmt.Errorf("set-up %d warm-up outputs %s differ from set-up 0's %s", s, p.warmDigests[s], p.warmDigests[0])
		}
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet struct {
	names []string
	m     map[string]metric
}

func (ms *metricSet) set(name, unit string, v float64) {
	if ms.m == nil {
		ms.m = map[string]metric{}
	}
	if _, dup := ms.m[name]; !dup {
		ms.names = append(ms.names, name)
	}
	ms.m[name] = metric{Value: v, Unit: unit}
}

// endToEnd computes the user-visible metrics of a phase.
func endToEnd(p *phase) (*metricSet, latencySummary, error) {
	ls, err := summarizeLatency(p.lat, p.failed)
	if err != nil {
		return nil, ls, err
	}
	ops := float64(p.ops)
	ms := &metricSet{}
	ms.set("setup_s", "s", median(durationsS(p.setups)))
	ms.set("latency_p50_ms", "ms", ls.P50)
	ms.set("latency_tail_ms", "ms", ls.Tail)
	ms.set("ops_per_s", "1/s", chunkThroughput(p.lat))
	ms.set("cpu_ms_per_op", "ms", chunkCPU(p.cpuBounds, p.ops))
	ms.set("allocs_per_op", "count", float64(p.after.mem.Mallocs-p.before.mem.Mallocs)/ops)
	ms.set("max_rss_mb", "MiB", p.rss)
	ms.set("err_mean_m", "m", mean(p.errs))
	ms.set("err_p90_m", "m", quantile(p.errs, 0.9))
	return ms, ls, nil
}

// chunks is how many consecutive runs of ops the timed phase is cut
// into for ops_per_s and cpu_ms_per_op, which report the median chunk:
// a short stall (a GC cycle, a burst of host load) then moves one chunk
// rather than the whole figure.
const chunks = 10

// chunkThroughput is the median chunk's ops per second. With one caller
// in a closed loop, a chunk's wall time is the sum of its op latencies
// (plus the benchmark's own per-op bookkeeping, which is left out).
func chunkThroughput(latMS []float64) float64 { return 1e3 * median(chunkRates(latMS, chunks)) }

// chunkCPU is the median chunk's process CPU milliseconds per op, from
// rusage taken at the chunk boundaries.
func chunkCPU(bounds []time.Duration, ops int) float64 {
	per := make([]float64, 0, chunks)
	for c := 0; c < chunks; c++ {
		lo, hi := chunkBounds(ops, chunks, c)
		per = append(per, float64(bounds[c+1]-bounds[c])/1e6/float64(hi-lo))
	}
	return median(per)
}

func durationsS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// perLayer computes the per-layer metrics of a traced phase from the
// registry deltas, the wrapper counters and the spans.
func perLayer(p *phase) *metricSet {
	b, a := p.before, p.after
	ops := float64(p.ops)
	ms := &metricSet{}
	stats := aggregate(p.spans, -1)
	sim := stats["sim.Run"]
	simMS := 0.0
	if sim != nil {
		simMS = float64(sim.Mean) / 1e6
	}
	ms.set("sim.simulate_ms", "ms", simMS)

	for _, st := range []struct{ metric, timer string }{
		{"core.sanitize_ms", "core.stage.sanitize.seconds"},
		{"motion.track_ms", "core.stage.motion.seconds"},
		{"sigproc.filter_ms", "core.stage.filter.seconds"},
		{"env.classify_ms", "core.stage.classify.seconds"},
		{"estimate.regress_ms", "core.stage.regress.seconds"},
	} {
		_, sum := histDeltaAll(b.engines, a.engines, st.timer)
		ms.set(st.metric, "ms", sum*1e3/ops)
	}

	def := func(name string) float64 { return float64(a.def.Counters[name] - b.def.Counters[name]) }
	runs, calls, iters := def("estimate.runs"), def("estimate.nm.calls"), def("estimate.nm.iterations")
	irls := def("estimate.irls.runs")
	ms.set("estimate.runs_per_op", "count", runs/ops)
	ms.set("estimate.nm_calls_per_run", "count", ratio(calls, runs))
	ms.set("estimate.nm_iters_per_call", "count", ratio(iters, calls))
	ms.set("estimate.irls_runs_per_op", "count", irls/ops)
	ms.set("estimate.irls_downweighted_per_run", "count", ratio(def("estimate.irls.downweighted"), irls))
	ms.set("core.session_fixes_per_op", "count", counterDelta(b.engines, a.engines, "core.session.fixes")/ops)

	// The busier node sets a routed push's latency: its fleet time is
	// what the wire time is measured against.
	busiest, pushes := 0.0, 0.0
	for i := range a.fleets {
		c, s := histDelta(b.fleets[i], a.fleets[i], "fleet.push.seconds")
		if s > busiest {
			busiest, pushes = s, c
		}
	}
	fleetMS := ratio(busiest*1e3, pushes)
	ms.set("fleet.push_ms", "ms", fleetMS)
	ms.set("fleet.evicted_per_op", "count", counterDelta(b.fleets, a.fleets, "fleet.sessions.evicted")/ops)
	ms.set("fleet.restored_per_op", "count", counterDelta(b.fleets, a.fleets, "fleet.sessions.restored")/ops)
	qc, qs := histDeltaAll(b.fleets, a.fleets, "fleet.shard.queue")
	ms.set("fleet.shard_queue_mean", "count", ratio(qs, qc))

	rc, rs := histDelta(b.router, a.router, "router.push.seconds")
	routerMS := ratio(rs*1e3, rc)
	ms.set("router.push_ms", "ms", routerMS)
	wire := 0.0
	if rc > 0 {
		wire = routerMS - fleetMS
	}
	ms.set("netproto.wire_ms", "ms", wire)
	routed := float64(a.router.Counters["router.obs.routed"] - b.router.Counters["router.obs.routed"])
	ms.set("netproto.bytes_per_obs", "B", ratio(def("netproto.bytes.out"), routed))
	ms.set("netproto.frames_per_op", "count", def("netproto.frames.out")/ops)
	perNode := 0
	for _, n := range p.placement {
		perNode = max(perNode, n)
	}
	ms.set("router.beacons_per_node_max", "count", float64(perNode))

	st := p.store
	saves := float64(st.saves)
	ms.set("durable.save_us", "us", ratio(float64(st.saveNS)/1e3, saves))
	ms.set("durable.load_us", "us", ratio(float64(st.loadNS)/1e3, float64(st.loads)))
	ms.set("durable.fsyncs_per_save", "count", ratio(float64(st.syncs), saves))
	ms.set("durable.sync_ms_per_op", "ms", float64(st.syncNS)/1e6/ops)
	ms.set("durable.wal_bytes_per_save", "B", ratio(float64(st.walBytes), saves))

	ms.set("runtime.gc_cycles_per_op", "count", float64(a.mem.NumGC-b.mem.NumGC)/ops)
	ms.set("runtime.gc_pause_ms_per_op", "ms", float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs)/1e6/ops)
	return ms
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := flag.Int("seconds", 10, "run length: the timed phase does this many seconds' worth of ops at the calibrated rate")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	workdir := flag.String("workdir", ".bench_build/run", "directory for the durable store's files")
	repro := flag.Bool("faults-repro", false, "demonstrate the faults.Apply determinism defect on --seed and exit")
	flag.Parse()

	if *repro {
		if err := faultsRepro(*seed, 6); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds N --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ops := max(w.opsPerSecond**seconds, minOps)

	plain, err := runPhase(*w, *seed, ops, false, *workdir, true)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w.name, err)
		return 1
	}
	e2e, ls, err := endToEnd(plain)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w.name, err)
		return 1
	}
	report(w.name, *seed, plain, e2e, ls)
	res := result{Correct: plain.checkErr == nil, Attempted: plain.tally.attempted, Failed: plain.tally.failed, Metrics: e2e.m}

	if *trace == 1 {
		traced, err := runPhase(*w, *seed, ops, true, *workdir, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench %s traced: %v\n", w.name, err)
			return 1
		}
		te2e, tls, err := endToEnd(traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench %s traced: %v\n", w.name, err)
			return 1
		}
		report(w.name+" (traced)", *seed, traced, te2e, tls)
		if traced.outDigest != plain.outDigest && traced.checkErr == nil {
			traced.checkErr = fmt.Errorf("traced outputs %s differ from untraced %s", traced.outDigest, plain.outDigest)
		}
		overhead(e2e, te2e)
		layers := perLayer(traced)
		if err := spanReport(traced); err != nil && traced.checkErr == nil {
			traced.checkErr = err
		}
		printMetrics("per-layer", layers)
		res = result{
			Correct:   plain.checkErr == nil && traced.checkErr == nil,
			Attempted: plain.tally.attempted + traced.tally.attempted,
			Failed:    plain.tally.failed + traced.tally.failed,
			Metrics:   layers.m,
		}
		if traced.checkErr != nil {
			fmt.Printf("check FAILED (traced): %v\n", traced.checkErr)
		}
	}
	for _, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench %s: a metric is not a finite number\n", w.name)
			res.Correct = false
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func workloadNames() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return strings.Join(n, ", ")
}

func report(name string, seed int64, p *phase, ms *metricSet, ls latencySummary) {
	fmt.Printf("workload %s seed %d: %d ops (%d warm-up), %d failed, wall %.3f s\n",
		name, seed, p.tally.attempted, p.warmup, p.tally.failed, p.wall.Seconds())
	fmt.Printf("  set-ups: %v (median reported)\n", p.setups)
	fmt.Printf("  input digest %s, output digest %s, %s\n", p.inDigests[len(p.inDigests)-1], p.outDigest, p.outputs)
	fmt.Printf("  latency: p50 %.3f ms over %d ops; tail p%.2f %.3f ms (%d samples beyond it in each of %d rounds of %d ops, median round)\n",
		ls.P50, ls.N, ls.TailPct, ls.Tail, tailMin, ls.Rounds, ls.RoundN)
	fmt.Printf("  whole-run latency: p90 %.3f ms, p99 %.3f ms, max %.3f ms\n", quantile(p.lat, 0.9), quantile(p.lat, 0.99), quantile(p.lat, 1))
	fmt.Printf("  whole-run rates: %.4g ops/s, %.4g CPU ms per op (the metrics report the median of %d chunks)\n",
		float64(p.ops)/p.wall.Seconds(), float64(p.after.cpu-p.before.cpu)/1e6/float64(p.ops), chunks)
	if p.checkErr != nil {
		fmt.Printf("  check FAILED: %v\n", p.checkErr)
	} else {
		fmt.Printf("  checks passed\n")
	}
	printMetrics("end-to-end", ms)
}

func printMetrics(kind string, ms *metricSet) {
	for _, n := range ms.names {
		fmt.Printf("  %s %-36s %14.6g %s\n", kind, n, ms.m[n].Value, ms.m[n].Unit)
	}
}

// overhead prints the traced run's cost against the untraced one.
func overhead(plain, traced *metricSet) {
	for _, n := range plain.names {
		a, b := plain.m[n].Value, traced.m[n].Value
		fmt.Printf("  trace overhead %-28s untraced %12.6g traced %12.6g (%+.1f%%)\n", n, a, b, 100*(ratio(b, a)-1))
	}
}

// spanReport prints where the timed ops' time went, by span name, and
// checks that the root op spans' self time plus their children's
// covered time equals their duration.
func spanReport(p *phase) error {
	stats := aggregate(p.spans, p.warmup)
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st := stats[n]
		fmt.Printf("  span %-20s count %6d mean %10.3f us, per op: total %9.3f ms self %9.3f ms\n",
			n, st.Count, float64(st.Mean)/1e3, float64(st.Total)/1e6/float64(p.ops), float64(st.Self)/1e6/float64(p.ops))
	}
	root := stats["op"]
	if root == nil || root.Count != p.ops {
		return fmt.Errorf("traced %d ops but recorded root op spans %+v", p.ops, root)
	}
	residual := root.Total - root.Self - root.Covered
	fmt.Printf("  span accounting: %d root op spans, duration %.3f ms = self %.3f ms + children %.3f ms (residual %d ns)\n",
		root.Count, float64(root.Total)/1e6, float64(root.Self)/1e6, float64(root.Covered)/1e6, residual)
	if residual != 0 {
		return fmt.Errorf("root op spans: self plus children misses their duration by %v", residual)
	}
	return nil
}
