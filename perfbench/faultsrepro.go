package main

import (
	"fmt"
	"sort"

	"locble"
	"locble/internal/faults"
	"locble/internal/sim"
)

// faultsRepro demonstrates a known defect the benchmark works around:
// faults.Apply is not deterministic for a fixed seed on a trace with
// several beacons. eachBeacon ranges over the trace's beacon map and
// hands each beacon src.Split(...), and Split draws from the parent
// stream, so which beacon gets which random stream follows Go's
// randomized map order. The workloads therefore never build inputs with
// faults.Apply. It prints one RSSI checksum per call; equal seeds should
// give equal checksums, and on a multi-beacon trace they do not.
func faultsRepro(seed int64, calls int) error {
	base, err := sim.Run(locble.Scenario{
		Beacons:      locateBeacons,
		ObserverPlan: locble.LShapeWalk(0, 4, 4),
		Seed:         seed,
	})
	if err != nil {
		return err
	}
	distinct := map[string]bool{}
	for c := 0; c < calls; c++ {
		tr := *base
		tr.Observations = make(map[string][]sim.BeaconObservation, len(base.Observations))
		for name, obs := range base.Observations {
			tr.Observations[name] = append([]sim.BeaconObservation(nil), obs...)
		}
		faults.Apply(&tr, seed, faults.RandomDrop{Prob: 0.2}, faults.ImpulseBurst{})
		names := make([]string, 0, len(tr.Observations))
		for n := range tr.Observations {
			names = append(names, n)
		}
		sort.Strings(names)
		d := newDigest()
		for _, n := range names {
			d.str(n)
			for _, o := range tr.Observations[n] {
				d.f64(o.T)
				d.f64(o.RSSI)
			}
		}
		distinct[d.sum()] = true
		fmt.Printf("faults.Apply call %d, seed %d: RSSI checksum %s\n", c+1, seed, d.sum())
	}
	fmt.Printf("%d calls with one seed gave %d distinct checksums (a deterministic Apply gives 1)\n", calls, len(distinct))
	return nil
}
