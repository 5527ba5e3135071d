package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"syscall"

	"locble/internal/core"
	"locble/internal/durable"
	"locble/internal/estimate"
	"locble/internal/fleet"
	"locble/internal/netproto"
	"locble/internal/router"
)

// Both tracking workloads run two loopback nodes, each one engine, one
// fleet shard and one netproto server, behind one router: with the
// single caller goroutine that is no more CPU-bound goroutines than the
// two cores the benchmark was tuned on.
const (
	clusterNodes = 2
	sampleHz     = 8
	obsPerSec    = 8
)

// sessionConfig is the fleet session template of both workloads.
var sessionConfig = core.TrackSessionConfig{SampleRateHz: sampleHz}

// nodePorts derives the nodes' fixed loopback ports from the seed. The
// ring hashes each node's address, so a fixed port is what keeps beacon
// placement identical from run to run. Ports stay below 32768, out of
// Linux's ephemeral range, so a client socket never holds one.
func nodePorts(seed int64) []int {
	base := 12000 + int(uint64(walkSeed(seed, 0, 7))%9000)*2
	ports := make([]int, clusterNodes)
	for i := range ports {
		ports[i] = base + i
	}
	return ports
}

type benchNode struct {
	eng *core.Engine
	fl  *fleet.Fleet
	srv *netproto.Server
}

type cluster struct {
	nodes []*benchNode
	addrs []string
	rt    *router.Router
}

// startCluster starts the nodes on their seed-derived ports (failing,
// never falling back, when a port is taken) and a router over them.
// store returns node i's checkpoint store.
func startCluster(seed int64, idle float64, store func(i int) fleet.CheckpointStore) (*cluster, error) {
	c := &cluster{}
	for i, port := range nodePorts(seed) {
		eng, err := core.NewEngine(core.DefaultConfig())
		if err != nil {
			c.close()
			return nil, err
		}
		fl, err := fleet.New(eng, fleet.Config{Shards: 1, Session: sessionConfig, Store: store(i), IdleMaxAge: idle})
		if err != nil {
			eng.Close()
			c.close()
			return nil, err
		}
		srv, err := netproto.NewServer("perfbench", port)
		if err != nil {
			fl.Close()
			eng.Close()
			c.close()
			if errors.Is(err, syscall.EADDRINUSE) {
				return nil, fmt.Errorf("node %d: loopback port %d (derived from --seed %d) is taken; "+
					"the benchmark does not fall back to another port because that would move beacons between nodes: %w", i, port, seed, err)
			}
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		srv.SetFleet(fl)
		c.nodes = append(c.nodes, &benchNode{eng: eng, fl: fl, srv: srv})
		c.addrs = append(c.addrs, srv.Addr())
	}
	rt, err := router.New(c.addrs, router.Config{})
	if err != nil {
		c.close()
		return nil, err
	}
	c.rt = rt
	return c, nil
}

// placeNames picks beacon names so that name i lives on node i%2: the
// two nodes then carry equal beacon counts and, since stream shapes
// follow the index, equal work. Ownership is learned by routing one
// observation per candidate name to throwaway fleets, which are then
// swapped out for the real ones, so the real sessions never see it.
func (c *cluster) placeNames(prefix string, n int) ([]string, error) {
	probes := make([]*fleet.Fleet, len(c.nodes))
	for i, nd := range c.nodes {
		pf, err := fleet.New(nd.eng, fleet.Config{Shards: 1, Session: sessionConfig})
		if err != nil {
			return nil, err
		}
		probes[i] = pf
		nd.srv.SetFleet(pf)
	}
	defer func() {
		for i, nd := range c.nodes {
			nd.srv.SetFleet(nd.fl)
			probes[i].Close()
		}
	}()
	nodeIdx := make(map[string]int, len(c.addrs))
	for i, a := range c.addrs {
		nodeIdx[a] = i
	}
	names := make([]string, n)
	filled := 0
	next := make([]int, len(c.nodes)) // next slot wanted per node
	for i := range next {
		next[i] = i
	}
	for round := 0; filled < n; round++ {
		if round > 8 {
			return nil, fmt.Errorf("could not balance %d beacons over %d nodes", n, len(c.nodes))
		}
		batch := make([]fleet.Obs, 0, 2*n)
		for j := 0; j < 2*n; j++ {
			batch = append(batch, fleet.Obs{Beacon: fmt.Sprintf("%s%d-%03d", prefix, round, j), RSS: -60})
		}
		res, err := c.rt.PushBatch(context.Background(), batch)
		if err != nil {
			return nil, fmt.Errorf("placement probe: %w", err)
		}
		for _, r := range res {
			if r.Err != nil {
				return nil, fmt.Errorf("placement probe %s: %w", r.Beacon, r.Err)
			}
			ni, ok := nodeIdx[r.Node]
			if !ok || next[ni] >= n {
				continue
			}
			names[next[ni]] = r.Beacon
			next[ni] += len(c.nodes)
			filled++
		}
	}
	return names, nil
}

func (c *cluster) sources() sources {
	s := sources{router: c.rt}
	for _, nd := range c.nodes {
		s.engines = append(s.engines, nd.eng)
		s.fleets = append(s.fleets, nd.fl)
	}
	return s
}

// close stops the router, then each node's server and fleet (a fleet
// checkpoints its resident sessions on Close) and engine.
func (c *cluster) close() error {
	var errs []error
	if c.rt != nil {
		errs = append(errs, c.rt.Close())
	}
	for _, nd := range c.nodes {
		errs = append(errs, nd.srv.Close(), nd.fl.Close(), nd.eng.Close())
	}
	c.nodes, c.rt = nil, nil
	return errors.Join(errs...)
}

// synthTruth is where fleet.SynthStream puts the beacon of a phase.
func synthTruth(phase float64) (x, y float64) {
	return 4 + 3*math.Sin(phase), 3 + 2*math.Cos(phase)
}

// spreadPhases spaces n beacon phases evenly round the circle, offset
// by a seed-derived fraction of one gap: every seed samples the same
// range of geometries, so seed-to-seed differences in work and error
// stay small.
func spreadPhases(seed int64, n int) []float64 {
	u := float64(uint64(walkSeed(seed, 0, 3))%1000) / 1000
	ph := make([]float64, n)
	for i := range ph {
		ph[i] = 2 * math.Pi * (float64(i) + u) / float64(n)
	}
	return ph
}

func estimateObs(o fleet.Obs) estimate.Obs {
	return estimate.Obs{T: o.T, RSS: o.RSS, P: o.P, Q: o.Q}
}

func toPushFix(pt core.TrackPoint) netproto.PushFix {
	return netproto.PushFix{
		T: pt.T, X: pt.Est.X, Y: pt.Est.H, N: pt.Est.N, Gamma: pt.Est.Gamma,
		Confidence: pt.Est.Confidence, Mode: pt.Mode.String(), Samples: pt.Samples,
	}
}

func sameFix(a, b netproto.PushFix) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return eq(a.T, b.T) && eq(a.X, b.X) && eq(a.Y, b.Y) && eq(a.N, b.N) && eq(a.Gamma, b.Gamma) &&
		eq(a.Confidence, b.Confidence) && a.Mode == b.Mode && a.Samples == b.Samples
}

func digestFix(d *digest, f netproto.PushFix) {
	d.f64(f.T)
	d.f64(f.X)
	d.f64(f.Y)
	d.f64(f.N)
	d.f64(f.Gamma)
	d.f64(f.Confidence)
	d.str(f.Mode)
	d.int(f.Samples)
}

func digestObs(d *digest, batches [][]fleet.Obs) {
	for _, b := range batches {
		d.int(len(b))
		for _, o := range b {
			d.str(o.Beacon)
			d.f64(o.T)
			d.f64(o.RSS)
			d.f64(o.P)
			d.f64(o.Q)
		}
	}
}

// ---- track-routed ----

// Each push carries 0.5 s of observations for each of routedBeacons
// beacons. Beacon i's stream starts (i/2)%4 pushes late, so its 2-s fix
// step falls on a different push for each quarter of the beacons, and
// since name i lives on node i%2, every push completes about the same
// number of fixes on each node.
const (
	routedBeacons = 24
	routedSlice   = obsPerSec / 2
	routedStagger = 4
)

// routedDelay is how many pushes beacon i's stream starts late.
func routedDelay(i int) int { return (i / clusterNodes) % routedStagger }

type routedInst struct {
	c       *cluster
	tr      *tracer
	names   []string
	truth   [][2]float64
	streams [][]fleet.Obs // per beacon, everything the run pushes
	batches [][]fleet.Obs // per op: warm-up then timed
	fixes   [][]netproto.PushFix
	onNode  []map[string]bool // beacons each node served
	index   map[string]int
	timed   bool
	errs    []float64
	bad     []string // first few per-beacon failures, for the check
}

func setupRouted(seed int64, totalOps int, tr *tracer, st *storeStats) (*routedInst, error) {
	sp := tr.open("cluster.start")
	c, err := startCluster(seed, 0, func(int) fleet.CheckpointStore {
		if st == nil {
			return nil // the fleet's own in-memory store
		}
		return &timedStore{inner: fleet.NewMemStore(), st: st, tr: tr}
	})
	var names []string
	if err == nil {
		if names, err = c.placeNames("tr", routedBeacons); err != nil {
			c.close()
		}
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	in := &routedInst{c: c, tr: tr, names: names}
	in.generate(seed, totalOps)
	return in, nil
}

func (in *routedInst) generate(seed int64, totalOps int) {
	sp := in.tr.open("fleet.SynthStream")
	defer in.tr.end(sp)
	phases := spreadPhases(seed, routedBeacons)
	n := len(in.names)
	in.index = make(map[string]int, n)
	in.streams = make([][]fleet.Obs, n)
	in.truth = make([][2]float64, n)
	in.fixes = make([][]netproto.PushFix, n)
	in.onNode = make([]map[string]bool, len(in.c.nodes))
	for i := range in.onNode {
		in.onNode[i] = map[string]bool{}
	}
	for i, name := range in.names {
		in.index[name] = i
		pushes := totalOps - routedDelay(i)
		in.streams[i] = fleet.SynthStream(name, pushes*routedSlice, phases[i])
		x, y := synthTruth(phases[i])
		in.truth[i] = [2]float64{x, y}
	}
	in.batches = make([][]fleet.Obs, totalOps)
	for k := range in.batches {
		b := make([]fleet.Obs, 0, n*routedSlice)
		for i := range in.names {
			j := k - routedDelay(i)
			if j < 0 {
				continue
			}
			b = append(b, in.streams[i][j*routedSlice:(j+1)*routedSlice]...)
		}
		in.batches[k] = b
	}
}

func (in *routedInst) op(k int) bool {
	sc := in.tr.enter("router.PushBatch", k)
	res, err := in.c.rt.PushBatch(context.Background(), in.batches[k])
	in.tr.leave(sc)
	if err != nil {
		in.fail(fmt.Sprintf("op %d: %v", k, err))
		return false
	}
	ok := true
	for _, r := range res {
		i, known := in.index[r.Beacon]
		if !known || r.Err != nil || r.Degraded || r.Quarantined {
			in.fail(fmt.Sprintf("op %d beacon %s: err=%v degraded=%v quarantined=%v", k, r.Beacon, r.Err, r.Degraded, r.Quarantined))
			ok = false
			continue
		}
		for ni, a := range in.c.addrs {
			if a == r.Node {
				in.onNode[ni][r.Beacon] = true
			}
		}
		in.fixes[i] = append(in.fixes[i], r.Fixes...)
		if in.timed {
			for _, f := range r.Fixes {
				in.errs = append(in.errs, math.Hypot(f.X-in.truth[i][0], f.Y-in.truth[i][1]))
			}
		}
	}
	return ok
}

func (in *routedInst) fail(msg string) {
	if len(in.bad) < 5 {
		in.bad = append(in.bad, msg)
	}
}

func (in *routedInst) placement() []int   { return nodeCounts(in.onNode) }
func (in *routedInst) startTimed()        { in.timed = true }
func (in *routedInst) sources() sources   { return in.c.sources() }
func (in *routedInst) errorsM() []float64 { return in.errs }

func (in *routedInst) inputDigest() string {
	d := newDigest()
	for _, a := range in.c.addrs {
		d.str(a)
	}
	digestObs(d, in.batches)
	return d.sum()
}

func (in *routedInst) outputDigest() string {
	d := newDigest()
	for i, name := range in.names {
		d.str(name)
		d.int(len(in.fixes[i]))
		for _, f := range in.fixes[i] {
			digestFix(d, f)
		}
	}
	for _, m := range in.onNode {
		d.int(len(m))
	}
	return d.sum()
}

func (in *routedInst) outputs() string {
	fixes := 0
	for _, f := range in.fixes {
		fixes += len(f)
	}
	return fmt.Sprintf("nodes=%v fixes=%d beacons_per_node=%v", in.c.addrs, fixes, nodeCounts(in.onNode))
}

func nodeCounts(onNode []map[string]bool) []int {
	out := make([]int, len(onNode))
	for i, m := range onNode {
		out[i] = len(m)
	}
	return out
}

// check replays every beacon's pushed observations through one local
// TrackSession each and requires the routed fixes to match bit for bit.
func (in *routedInst) check() error {
	if len(in.bad) > 0 {
		return fmt.Errorf("routed pushes failed: %v", in.bad)
	}
	pushed := make([]int, len(in.names))
	for _, b := range in.batches {
		for _, o := range b {
			pushed[in.index[o.Beacon]]++
		}
	}
	eng, err := core.NewEngine(core.DefaultConfig())
	if err != nil {
		return err
	}
	defer eng.Close()
	errs := make([]error, len(in.names))
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(in.names); i += workers {
				errs[i] = in.replay(eng, i, in.streams[i][:pushed[i]])
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (in *routedInst) replay(eng *core.Engine, i int, obs []fleet.Obs) error {
	cfg := sessionConfig
	cfg.Beacon = in.names[i]
	ts, err := eng.NewTrackSession(cfg)
	if err != nil {
		return err
	}
	var want []netproto.PushFix
	for _, o := range obs {
		pt, err := ts.Push(estimateObs(o))
		if err != nil {
			return fmt.Errorf("replay %s: %w", cfg.Beacon, err)
		}
		if pt != nil {
			want = append(want, toPushFix(*pt))
		}
	}
	got := in.fixes[i]
	if len(got) != len(want) {
		return fmt.Errorf("%s: routed run gave %d fixes, sequential replay %d", cfg.Beacon, len(got), len(want))
	}
	for j := range got {
		if !sameFix(got[j], want[j]) {
			return fmt.Errorf("%s: fix %d differs from sequential replay: routed %+v, replay %+v", cfg.Beacon, j, got[j], want[j])
		}
	}
	return nil
}

func (in *routedInst) close() error { return in.c.close() }

// ---- track-churn ----

// Four cohorts of churnCohort beacons take turns: op k is a 2-s visit
// by cohort k%4, stamped [2k, 2k+2) s. Observation time therefore moves
// 6 s past a cohort's last sample before its next visit, so with a 3-s
// idle horizon every cohort is checkpointed and evicted two ops after
// its visit and restored on the next one. The 8-s jump between a
// beacon's visits also empties its 6-s fix window, so the estimator
// does not run and the op is store and transport work.
//
// The store runs buffered (durable.Options.Buffered): saves append to
// the WAL without an fsync of their own, and each WAL shard fsyncs when
// it rotates a snapshot. With an fsync per save the op was mostly the
// host disk's fsync latency, which drifted from 86 to 148 us within 15
// s on the 2-vCPU host the benchmark was tuned on; ten seeds then
// spread 26 % on p50 and 40 % on the tail, against 6-17 % and 7-19 %
// buffered.
const (
	churnCohorts = 4
	churnCohort  = 24
	churnVisit   = 2 * obsPerSec // observations per beacon per visit
	churnIdle    = 3.0
	// After the run every beacon is restored from the reopened store
	// and fed churnTail more observations, long enough for fixes.
	churnTail = 8 * obsPerSec
)

type churnInst struct {
	c       *cluster
	tr      *tracer
	dir     string
	store   *durable.FileStore
	names   []string // cohort c owns names[c*churnCohort : (c+1)*churnCohort]
	phases  []float64
	tails   [][]fleet.Obs // per beacon, the observations check resumes with
	batches [][]fleet.Obs
	totalOp int

	created, restored int
	bad               []string
	onNode            []map[string]bool
	errs              []float64 // filled by check
	postFixes         int
	recovered         int
}

func setupChurn(seed int64, totalOps int, tr *tracer, st *storeStats, workdir string) (*churnInst, error) {
	in := &churnInst{tr: tr, totalOp: totalOps}
	dir, err := os.MkdirTemp(workdir, "churn-")
	if err != nil {
		return nil, err
	}
	in.dir = dir
	opt := &durable.Options{Buffered: true}
	if st != nil {
		dfs, err := durable.NewDirFS(dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		opt.FS = &countingFS{FS: dfs, st: st, tr: tr}
	}
	sp := tr.open("durable.Open")
	store, err := durable.Open(dir, opt)
	tr.end(sp)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	in.store = store
	var cs fleet.CheckpointStore = store
	if st != nil {
		cs = &timedStore{inner: store, st: st, tr: tr}
	}
	sp = tr.open("cluster.start")
	in.c, err = startCluster(seed, churnIdle, func(int) fleet.CheckpointStore { return cs })
	if err == nil {
		in.names, err = in.c.placeNames("tc", churnCohorts*churnCohort)
	}
	tr.end(sp)
	if err != nil {
		in.close()
		return nil, err
	}
	in.generate(seed)
	return in, nil
}

func (in *churnInst) generate(seed int64) {
	sp := in.tr.open("fleet.SynthStream")
	defer in.tr.end(sp)
	n := len(in.names)
	in.phases = spreadPhases(seed, n)
	in.onNode = make([]map[string]bool, len(in.c.nodes))
	for i := range in.onNode {
		in.onNode[i] = map[string]bool{}
	}
	visits := (in.totalOp + churnCohorts - 1) / churnCohorts
	streams := make([][]fleet.Obs, n)
	in.tails = make([][]fleet.Obs, n)
	for i, name := range in.names {
		streams[i] = fleet.SynthStream(name, visits*churnVisit+churnTail, in.phases[i])
		in.tails[i] = append([]fleet.Obs(nil), streams[i][visits*churnVisit:]...)
	}
	in.batches = make([][]fleet.Obs, in.totalOp)
	for k := range in.batches {
		c, v := k%churnCohorts, k/churnCohorts
		b := make([]fleet.Obs, 0, churnCohort*churnVisit)
		for i := c * churnCohort; i < (c+1)*churnCohort; i++ {
			for j, o := range streams[i][v*churnVisit : (v+1)*churnVisit] {
				o.T = 2*float64(k) + float64(j)/obsPerSec
				b = append(b, o)
			}
		}
		in.batches[k] = b
	}
}

func (in *churnInst) op(k int) bool {
	sc := in.tr.enter("router.PushBatch", k)
	res, err := in.c.rt.PushBatch(context.Background(), in.batches[k])
	in.tr.leave(sc)
	if err != nil {
		in.fail(fmt.Sprintf("op %d: %v", k, err))
		return false
	}
	revisit := k >= churnCohorts
	ok := true
	for _, r := range res {
		if r.Err != nil || r.Degraded || r.Quarantined {
			in.fail(fmt.Sprintf("op %d beacon %s: err=%v degraded=%v quarantined=%v", k, r.Beacon, r.Err, r.Degraded, r.Quarantined))
			ok = false
			continue
		}
		if r.Created {
			in.created++
		}
		if r.Restored {
			in.restored++
		}
		if revisit != r.Restored {
			in.fail(fmt.Sprintf("op %d beacon %s: restored=%v on visit %d", k, r.Beacon, r.Restored, k/churnCohorts))
			ok = false
		}
		for ni, a := range in.c.addrs {
			if a == r.Node {
				in.onNode[ni][r.Beacon] = true
			}
		}
	}
	return ok
}

func (in *churnInst) fail(msg string) {
	if len(in.bad) < 5 {
		in.bad = append(in.bad, msg)
	}
}

func (in *churnInst) placement() []int   { return nodeCounts(in.onNode) }
func (in *churnInst) startTimed()        {}
func (in *churnInst) sources() sources   { return in.c.sources() }
func (in *churnInst) errorsM() []float64 { return in.errs }

func (in *churnInst) inputDigest() string {
	d := newDigest()
	for _, a := range in.c.addrs {
		d.str(a)
	}
	digestObs(d, in.batches)
	return d.sum()
}

func (in *churnInst) outputDigest() string {
	d := newDigest()
	d.int(in.created)
	d.int(in.restored)
	d.int(in.postFixes)
	for _, m := range in.onNode {
		d.int(len(m))
	}
	for _, e := range in.errs {
		d.f64(e)
	}
	return d.sum()
}

func (in *churnInst) outputs() string {
	return fmt.Sprintf("nodes=%v created=%d restored=%d beacons_per_node=%v recovered=%d post_run_fixes=%d",
		in.c.addrs, in.created, in.restored, nodeCounts(in.onNode), in.recovered, in.postFixes)
}

// check shuts the cluster down (each fleet checkpoints what is still
// resident), reopens the store from disk and requires every beacon
// back with no torn tail or quarantined region, then resumes each
// beacon from its recovered checkpoint for churnTail more observations;
// those fixes are the workload's error sample.
func (in *churnInst) check() error {
	var storeErrs, restoreErrs int64
	for _, nd := range in.c.nodes {
		m := nd.fl.Metrics()
		storeErrs += m.Counters["fleet.store.errors"]
		restoreErrs += m.Counters["fleet.restore.errors"]
	}
	if err := in.c.close(); err != nil {
		return fmt.Errorf("cluster close: %w", err)
	}
	if err := in.store.Close(); err != nil {
		return fmt.Errorf("store close: %w", err)
	}
	in.store = nil
	if len(in.bad) > 0 {
		return fmt.Errorf("churn pushes failed: %v", in.bad)
	}
	if storeErrs != 0 || restoreErrs != 0 {
		return fmt.Errorf("fleets reported %d store errors and %d restore errors", storeErrs, restoreErrs)
	}
	st, err := durable.Open(in.dir, nil)
	if err != nil {
		return fmt.Errorf("reopen store: %w", err)
	}
	defer st.Close()
	rec := st.RecoveryStats()
	in.recovered = st.Len()
	if rec.TornTails != 0 || rec.Quarantined != 0 {
		return fmt.Errorf("reopened store found %d torn tails and %d quarantined regions", rec.TornTails, rec.Quarantined)
	}
	if st.Len() != len(in.names) {
		return fmt.Errorf("reopened store holds %d beacons, want %d", st.Len(), len(in.names))
	}
	eng, err := core.NewEngine(core.DefaultConfig())
	if err != nil {
		return err
	}
	defer eng.Close()
	lastT := 2 * float64(in.totalOp)
	for i, name := range in.names {
		cp, found, err := st.Load(name)
		if err != nil || !found {
			return fmt.Errorf("reopened store: beacon %s found=%v: %v", name, found, err)
		}
		ts, err := eng.RestoreTrackSession(cp)
		if err != nil {
			return fmt.Errorf("restore %s: %w", name, err)
		}
		x, y := synthTruth(in.phases[i])
		for j, o := range in.tails[i] {
			o.T = lastT + float64(j)/obsPerSec
			pt, err := ts.Push(estimateObs(o))
			if err != nil {
				return fmt.Errorf("resume %s: %w", name, err)
			}
			if pt != nil {
				in.postFixes++
				in.errs = append(in.errs, math.Hypot(pt.Est.X-x, pt.Est.H-y))
			}
		}
	}
	if in.postFixes == 0 {
		return errors.New("no beacon produced a fix after resuming from the reopened store")
	}
	return nil
}

func (in *churnInst) close() error {
	var errs []error
	if in.c != nil {
		errs = append(errs, in.c.close())
	}
	if in.store != nil {
		errs = append(errs, in.store.Close())
		in.store = nil
	}
	errs = append(errs, os.RemoveAll(in.dir))
	return errors.Join(errs...)
}
