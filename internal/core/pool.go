package core

import (
	"context"
	"runtime"
	"sync"

	"locble/internal/estimate"
	"locble/internal/sim"
)

// locateScratch bundles the reusable per-run state of one pipeline
// execution: the estimator's solver (simplex, centroid, residual and
// seed arenas) and the zero-phase ANF output buffer. One scratch serves
// one pipeline run at a time; LocateAll's shard workers each own one
// for their lifetime, and every other entry point borrows one from a
// sync.Pool, so steady-state traffic re-runs the hot path on warm
// buffers instead of reallocating them per call.
type locateScratch struct {
	solver *estimate.Solver
	fbuf   []float64
}

var locateScratchPool = sync.Pool{
	New: func() any { return &locateScratch{solver: estimate.NewSolver()} },
}

func getLocateScratch() *locateScratch   { return locateScratchPool.Get().(*locateScratch) }
func putLocateScratch(sc *locateScratch) { locateScratchPool.Put(sc) }

// locateJob is one beacon's unit of work inside a LocateAll fan-out.
// The result slot is owned by this job until wg.Done — the submitting
// batch only reads it after wg.Wait, so no further synchronization is
// needed on the slot itself.
type locateJob struct {
	ctx  context.Context
	tr   *sim.Trace
	name string
	res  *BeaconResult
	wg   *sync.WaitGroup
}

// shardQueueDepth is each shard channel's buffer. Submission blocks
// once a shard is this far behind, which is pure backpressure — the
// worker always drains, so a full shard delays the submitter without
// any possibility of deadlock.
const shardQueueDepth = 64

// shardPool is the engine's persistent LocateAll worker pool: one
// goroutine per GOMAXPROCS, each owning one shard channel and one
// locateScratch for its whole life. Beacons hash to shards by name
// (FNV-1a), so repeated batches over the same beacon set keep hitting
// the same warm arenas. flight counts active LocateAll batches;
// Engine.Close waits for it before closing the shard channels, so a
// batch never races a shutdown into a send-on-closed-channel panic.
type shardPool struct {
	shards []chan locateJob
	flight sync.WaitGroup
	done   sync.WaitGroup
}

func newShardPool(e *Engine) *shardPool {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	p := &shardPool{shards: make([]chan locateJob, n)}
	for i := range p.shards {
		ch := make(chan locateJob, shardQueueDepth)
		p.shards[i] = ch
		p.done.Add(1)
		go e.shardWorker(p, ch)
	}
	return p
}

// shardWorker is one pool goroutine: it drains its shard channel until
// Close closes it, running every job on its private scratch.
func (e *Engine) shardWorker(p *shardPool, ch chan locateJob) {
	defer p.done.Done()
	sc := getLocateScratch()
	defer putLocateScratch(sc)
	for job := range ch {
		e.runLocateJob(job, sc)
	}
}

// runLocateJob executes one beacon's pipeline and fills its result
// slot. It is the single code path for pooled, inline-fallback and
// sequential execution, so all three report cancellation, health and
// the concurrency gauge identically.
func (e *Engine) runLocateJob(job locateJob, sc *locateScratch) {
	defer job.wg.Done()
	e.met.concurrency.Add(1)
	defer e.met.concurrency.Add(-1)
	var (
		m   *Measurement
		err error
	)
	if job.ctx.Err() != nil {
		err = canceledErr(job.ctx, "locate "+job.name)
	} else {
		m, err = e.locateContextWith(job.ctx, job.tr, job.name, sc)
	}
	res := BeaconResult{Name: job.name, M: m, Err: err}
	if err != nil {
		res.Health = HealthFromError(err)
	} else {
		res.Health = m.Health
	}
	*job.res = res
}

// ShardIndex maps a beacon name onto one of n shards with 64-bit
// FNV-1a. LocateAll's shard pool and the fleet's session shards both
// use it, so a beacon's work stays on one CPU across both paths.
func ShardIndex(name string, n int) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// acquirePool returns the engine's worker pool with a flight slot held
// (the caller must flight.Done when its batch completes), starting the
// pool on first use. It returns nil after Close — callers fall back to
// inline execution.
func (e *Engine) acquirePool() *shardPool {
	e.poolMu.Lock()
	defer e.poolMu.Unlock()
	if e.poolClosed {
		return nil
	}
	if e.locPool == nil {
		e.locPool = newShardPool(e)
	}
	e.locPool.flight.Add(1)
	return e.locPool
}

// Close shuts the persistent LocateAll worker pool down: it waits for
// in-flight batches, closes the shard channels and joins the workers.
// Close is idempotent, and a closed engine stays fully usable — every
// entry point still works; LocateAll merely runs its fan-out inline
// instead of on pool workers. Long-running hosts that create engines
// dynamically should Close them to release the pool goroutines.
func (e *Engine) Close() error {
	e.poolMu.Lock()
	if e.poolClosed {
		e.poolMu.Unlock()
		return nil
	}
	e.poolClosed = true
	p := e.locPool
	e.locPool = nil
	e.poolMu.Unlock()
	if p == nil {
		return nil
	}
	p.flight.Wait()
	for _, ch := range p.shards {
		close(ch)
	}
	p.done.Wait()
	return nil
}
