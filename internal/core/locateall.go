package core

import (
	"context"
	"sort"
	"sync"

	"locble/internal/sim"
)

// BeaconResult pairs a beacon name with its measurement or error.
type BeaconResult struct {
	Name string
	M    *Measurement
	Err  error
	// Health is the degradation report for this beacon: the
	// measurement's own on success, or the report recovered from the
	// rejection error (so a caller can tell "unusable input" apart from
	// "beacon absent" without unwrapping errors).
	Health Health
}

// LocateAll locates every beacon visible in the trace concurrently (the
// Engine is safe for concurrent Locate calls; the per-beacon pipelines
// are independent). Results are returned in beacon-name order.
func (e *Engine) LocateAll(tr *sim.Trace) []BeaconResult {
	return e.LocateAllContext(context.Background(), tr)
}

// LocateAllContext is LocateAll under a context. The fan-out runs on
// the engine's persistent sharded worker pool: GOMAXPROCS workers, each
// owning a shard channel and a reusable pipeline scratch (estimator
// arenas + filter buffer), with beacons hashed to shards by name — so
// repeated batches reuse warm buffers instead of respawning goroutines
// and reallocating arenas per call. The per-beacon pipelines are
// CPU-bound, so a trace carrying thousands of beacons (a crowded-venue
// scan) must not stampede the scheduler with one goroutine each; a full
// shard applies backpressure to the submitter rather than shedding, so
// no beacon is ever silently dropped. Cancellation drains fast: beacons
// not yet started report the context error immediately, and in-flight
// pipelines stop mid-regression. The observed peak concurrency is
// recorded in the engine's "core.locateall.concurrency" gauge (its Max
// is the high-water mark). After Engine.Close the fan-out runs inline
// on the calling goroutine with identical results and bookkeeping.
func (e *Engine) LocateAllContext(ctx context.Context, tr *sim.Trace) []BeaconResult {
	e.met.locateAlls.Inc()
	names := make([]string, 0, len(tr.Observations))
	for name := range tr.Observations {
		names = append(names, name)
	}
	sort.Strings(names)

	results := make([]BeaconResult, len(names))
	var wg sync.WaitGroup
	wg.Add(len(names))

	p := e.acquirePool()
	if p == nil {
		// Engine closed: run the same jobs inline, sequentially, on one
		// borrowed scratch.
		sc := getLocateScratch()
		defer putLocateScratch(sc)
		for i, name := range names {
			e.runLocateJob(locateJob{ctx: ctx, tr: tr, name: name, res: &results[i], wg: &wg}, sc)
		}
		wg.Wait()
		return results
	}
	defer p.flight.Done()
	for i, name := range names {
		job := locateJob{ctx: ctx, tr: tr, name: name, res: &results[i], wg: &wg}
		select {
		case p.shards[ShardIndex(name, len(p.shards))] <- job:
		case <-ctx.Done():
			// Canceled while a full shard held the submitter in
			// backpressure: the batch is dead, so waiting for a slot would
			// hang forever. Complete this job and every unsubmitted one
			// inline through the same runLocateJob path — each observes
			// the canceled context and reports it, keeping the result
			// shape, metrics, and health bookkeeping identical to a
			// cancellation that lands after submission.
			sc := getLocateScratch()
			for j := i; j < len(names); j++ {
				e.runLocateJob(locateJob{ctx: ctx, tr: tr, name: names[j], res: &results[j], wg: &wg}, sc)
			}
			putLocateScratch(sc)
			wg.Wait()
			return results
		}
	}
	wg.Wait()
	return results
}
