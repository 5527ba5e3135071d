// Package faults provides composable, seeded-deterministic fault
// injectors for the LocBLE pipeline. Each injector transforms a simulated
// trace (or a bare observation stream) into an impaired one, reproducing
// the failure modes real BLE deployments exhibit: advertising-packet loss
// and scan-window misses (paper Sec. 2.2), device-dependent RSSI offsets
// and receiver saturation (Sec. 2.4), duplicated or reordered HCI scan
// reports, clock skew between the BLE and IMU timelines, inertial-sensor
// dropout and saturation, and byte-level PDU corruption on the air.
//
// Injectors are values of the Fault interface and compose with Chain, so
// a test scenario like "a stalled scanner followed by a saturated
// accelerometer" is one value. All randomness is drawn from an explicit
// rng.Source, so every injected scenario is reproducible given a seed.
package faults

import (
	"fmt"
	"sort"
	"strings"

	"locble/internal/rng"
	"locble/internal/sim"
)

// Fault is one composable impairment. Apply mutates the trace in place,
// drawing any randomness it needs from src. Implementations must be
// deterministic given (trace, src) and must never panic on an empty or
// already-impaired trace.
type Fault interface {
	// Name identifies the injector in test output and logs.
	Name() string
	// Apply injects the fault into the trace.
	Apply(tr *sim.Trace, src *rng.Source)
}

// Chain composes faults left to right into one Fault. Each member draws
// from an independent random stream split off the chain's source, so
// adding a member never perturbs the randomness of the others.
func Chain(fs ...Fault) Fault { return chain(fs) }

type chain []Fault

func (c chain) Name() string {
	names := make([]string, len(c))
	for i, f := range c {
		names[i] = f.Name()
	}
	return "chain(" + strings.Join(names, ",") + ")"
}

func (c chain) Apply(tr *sim.Trace, src *rng.Source) {
	for i, f := range c {
		f.Apply(tr, src.Split(int64(i+1)))
	}
}

// Apply injects the given faults into the trace, deriving each injector's
// random stream from seed. It is the convenience entry point for tests
// and the CLI.
func Apply(tr *sim.Trace, seed int64, fs ...Fault) {
	Chain(fs...).Apply(tr, rng.New(seed))
}

// ApplyRSS runs the faults over a bare observation stream (a live
// scanner feed rather than a full trace): the stream is wrapped in a
// minimal single-beacon trace, impaired, and returned. IMU-directed
// faults are no-ops in this mode.
func ApplyRSS(obs []sim.BeaconObservation, seed int64, fs ...Fault) []sim.BeaconObservation {
	tr := &sim.Trace{
		Observations: map[string][]sim.BeaconObservation{"stream": append([]sim.BeaconObservation(nil), obs...)},
	}
	if n := len(obs); n > 0 {
		tr.Duration = obs[n-1].T
	}
	Apply(tr, seed, fs...)
	return tr.Observations["stream"]
}

// eachBeacon applies fn to every beacon's observation slice and stores
// the result back. Each beacon gets a source split off src and keyed on
// a stable hash of its name; Split draws from src, so the beacons are
// visited in sorted name order to keep map iteration order out of the
// random streams.
func eachBeacon(tr *sim.Trace, src *rng.Source, fn func(obs []sim.BeaconObservation, src *rng.Source) []sim.BeaconObservation) {
	names := make([]string, 0, len(tr.Observations))
	for name := range tr.Observations {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tr.Observations[name] = fn(tr.Observations[name], src.Split(nameKey(name)))
	}
}

// nameKey maps a beacon name to a stable split label (FNV-1a).
func nameKey(name string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return int64(h & 0x7FFFFFFFFFFFFFFF)
}

func fname(format string, args ...any) string { return fmt.Sprintf(format, args...) }
