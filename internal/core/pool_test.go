package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"locble/internal/imu"
	"locble/internal/rf"
	"locble/internal/sim"
	"locble/internal/testutil"
)

// manyBeaconScenario spreads n beacons around the canonical L-shape walk
// so the fan-out exercises every shard.
func manyBeaconScenario(n int, seed int64) sim.Scenario {
	sc := sim.Scenario{
		ObserverPlan: imu.Plan{Segments: imu.LShape(0, 4, 4)},
		EnvModel:     sim.StaticEnv(rf.LOS),
		Seed:         seed,
	}
	for i := 0; i < n; i++ {
		sc.Beacons = append(sc.Beacons, sim.BeaconSpec{
			Name: fmt.Sprintf("b%02d", i),
			X:    1 + float64(i%4)*2,
			Y:    1 + float64(i/4)*1.5,
		})
	}
	return sc
}

// TestLocateAllMatchesSequential pins the sharded pool to the
// sequential path bit-for-bit: for every beacon, the pooled fan-out and
// a plain LocateContext loop must produce the exact same fix (the
// workers reuse per-shard scratch arenas, so any cross-run state leak
// would show up here as a drifted coordinate).
func TestLocateAllMatchesSequential(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer eng.Close()
	tr, err := sim.Run(manyBeaconScenario(9, 3))
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}

	pooled := eng.LocateAll(tr)
	if len(pooled) != 9 {
		t.Fatalf("LocateAll: %d results, want 9", len(pooled))
	}
	// Run the pool twice so shard workers re-enter with warm arenas.
	pooled = eng.LocateAll(tr)

	for _, res := range pooled {
		seq, seqErr := eng.Locate(tr, res.Name)
		if (seqErr == nil) != (res.Err == nil) {
			t.Fatalf("%s: pooled err %v, sequential err %v", res.Name, res.Err, seqErr)
		}
		if seqErr != nil {
			continue
		}
		if res.M.Est.X != seq.Est.X || res.M.Est.H != seq.Est.H ||
			res.M.Est.N != seq.Est.N || res.M.Est.Gamma != seq.Est.Gamma ||
			res.M.Est.ResidualDB != seq.Est.ResidualDB {
			t.Errorf("%s: pooled fix (%v,%v n=%v Γ=%v r=%v) != sequential (%v,%v n=%v Γ=%v r=%v)",
				res.Name,
				res.M.Est.X, res.M.Est.H, res.M.Est.N, res.M.Est.Gamma, res.M.Est.ResidualDB,
				seq.Est.X, seq.Est.H, seq.Est.N, seq.Est.Gamma, seq.Est.ResidualDB)
		}
	}
}

// TestLocateAllPoolStress hammers the pool from many goroutines at once
// (run under -race in CI): concurrent batches share the shard workers,
// so this is where a scratch-arena data race or a result-slot race
// would surface. It then Closes the engine and verifies the pool
// goroutines are gone and the inline fallback still answers.
func TestLocateAllPoolStress(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)

	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	tr, err := sim.Run(manyBeaconScenario(6, 4))
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}

	want := eng.LocateAll(tr)

	const batches = 8
	var wg sync.WaitGroup
	errs := make(chan error, batches)
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := eng.LocateAll(tr)
			if len(got) != len(want) {
				errs <- fmt.Errorf("batch: %d results, want %d", len(got), len(want))
				return
			}
			for i, res := range got {
				if res.Err != nil {
					errs <- fmt.Errorf("%s: %v", res.Name, res.Err)
					return
				}
				if res.M.Est.X != want[i].M.Est.X || res.M.Est.H != want[i].M.Est.H {
					errs <- fmt.Errorf("%s: fix (%v,%v) != (%v,%v)", res.Name,
						res.M.Est.X, res.M.Est.H, want[i].M.Est.X, want[i].M.Est.H)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// Closed engine: the fan-out falls back to inline execution with the
	// same results.
	after := eng.LocateAll(tr)
	if len(after) != len(want) {
		t.Fatalf("after Close: %d results, want %d", len(after), len(want))
	}
	for i, res := range after {
		if res.Err != nil {
			t.Fatalf("after Close %s: %v", res.Name, res.Err)
		}
		if res.M.Est.X != want[i].M.Est.X || res.M.Est.H != want[i].M.Est.H {
			t.Errorf("after Close %s: fix (%v,%v) != (%v,%v)", res.Name,
				res.M.Est.X, res.M.Est.H, want[i].M.Est.X, want[i].M.Est.H)
		}
	}
}

// TestLocateAllCancelUnderPool verifies cancellation semantics survived
// the pool rewrite: a pre-canceled context reports a context error for
// every beacon, promptly, and the pool stays usable afterwards.
func TestLocateAllCancelUnderPool(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer eng.Close()
	tr, err := sim.Run(manyBeaconScenario(5, 5))
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, res := range eng.LocateAllContext(ctx, tr) {
		if res.Err == nil {
			t.Fatalf("%s: fix despite canceled context", res.Name)
		}
		if !isCanceled(res.Err) {
			t.Fatalf("%s: error %v is not a cancellation", res.Name, res.Err)
		}
	}
	for _, res := range eng.LocateAll(tr) {
		if res.Err != nil {
			t.Fatalf("after cancel %s: %v", res.Name, res.Err)
		}
	}
}

// blockGateCtx parks any goroutine that probes Err until gate closes.
// runLocateJob's first act is a ctx.Err() check, so stuffing a shard
// with gated jobs deterministically pins its worker mid-job — the only
// way to saturate the pool without sleeping and hoping.
type blockGateCtx struct {
	context.Context
	gate <-chan struct{}
}

func (c blockGateCtx) Err() error {
	<-c.gate
	return c.Context.Err()
}

// TestLocateAllCanceledUnderShardBackpressure is the regression test for
// the submit-loop hang: with every shard worker parked and every shard
// buffer full, LocateAllContext's submitter blocks in backpressure; a
// cancellation must unblock it and complete the unsubmitted results
// with the context error instead of hanging on a dead batch forever.
// Pre-fix (bare channel send, no ctx.Done select) this test times out.
func TestLocateAllCanceledUnderShardBackpressure(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)

	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer eng.Close()

	// Saturate the pool: one gated job occupies each worker, then
	// shardQueueDepth more fill each shard buffer. Their context is
	// already canceled, so once the gate opens they drain instantly
	// without running a pipeline.
	p := eng.acquirePool()
	gate := make(chan struct{})
	stuffedCtx, stuffedCancel := context.WithCancel(context.Background())
	stuffedCancel()
	gctx := blockGateCtx{Context: stuffedCtx, gate: gate}
	stuffPer := 1 + shardQueueDepth
	stuffRes := make([]BeaconResult, len(p.shards)*stuffPer)
	var stuffWG sync.WaitGroup
	dead := &sim.Trace{}
	k := 0
	for _, ch := range p.shards {
		for j := 0; j < stuffPer; j++ {
			stuffWG.Add(1)
			ch <- locateJob{ctx: gctx, tr: dead, name: "gate", res: &stuffRes[k], wg: &stuffWG}
			k++
		}
	}

	tr, err := sim.Run(manyBeaconScenario(4, 7))
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	resCh := make(chan []BeaconResult, 1)
	go func() { resCh <- eng.LocateAllContext(ctx, tr) }()

	// Let the submitter park on a full shard, then kill the batch.
	time.Sleep(50 * time.Millisecond)
	cancel()

	var results []BeaconResult
	select {
	case results = <-resCh:
	case <-time.After(10 * time.Second):
		close(gate)
		t.Fatal("LocateAllContext hung: canceled context did not unblock a submitter stuck in shard backpressure")
	}
	if len(results) != 4 {
		t.Fatalf("canceled batch: %d results, want 4", len(results))
	}
	for _, res := range results {
		if res.Err == nil {
			t.Fatalf("%s: fix despite canceled batch", res.Name)
		}
		if !isCanceled(res.Err) {
			t.Fatalf("%s: error %v is not a cancellation", res.Name, res.Err)
		}
	}

	// Open the gate: the parked jobs drain, and the pool must come back
	// healthy for a live batch.
	close(gate)
	stuffWG.Wait()
	p.flight.Done()
	for _, res := range eng.LocateAll(tr) {
		if res.Err != nil {
			t.Fatalf("after drain %s: %v", res.Name, res.Err)
		}
	}
}

// TestShardIndexStable pins the shard hash: stable per name, in range,
// and spread across shards for realistic name sets.
func TestShardIndexStable(t *testing.T) {
	const n = 8
	hit := make(map[int]bool)
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("beacon-%d", i)
		s := ShardIndex(name, n)
		if s < 0 || s >= n {
			t.Fatalf("ShardIndex(%q, %d) = %d out of range", name, n, s)
		}
		if s != ShardIndex(name, n) {
			t.Fatalf("ShardIndex(%q) unstable", name)
		}
		hit[s] = true
	}
	if len(hit) < n/2 {
		t.Errorf("64 names landed on only %d/%d shards", len(hit), n)
	}
}

func BenchmarkLocateAllPool(b *testing.B) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		b.Fatalf("NewEngine: %v", err)
	}
	defer eng.Close()
	tr, err := sim.Run(manyBeaconScenario(8, 6))
	if err != nil {
		b.Fatalf("sim.Run: %v", err)
	}
	eng.LocateAll(tr) // warm the classifier, pool and arenas
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.LocateAll(tr)
	}
}
