package faults

import (
	"math"
	"testing"

	"locble/internal/imu"
	"locble/internal/rf"
	"locble/internal/sim"
)

func testTrace(t *testing.T, seed int64) *sim.Trace {
	t.Helper()
	tr, err := sim.Run(sim.Scenario{
		Beacons:      []sim.BeaconSpec{{Name: "target", X: 6, Y: 3}},
		ObserverPlan: imu.Plan{Segments: imu.LShape(0, 4, 4)},
		EnvModel:     sim.StaticEnv(rf.LOS),
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestDropoutBurstRemovesWindow(t *testing.T) {
	tr := testTrace(t, 1)
	before := len(tr.Observations["target"])
	Apply(tr, 1, DropoutBurst{Start: 3, Duration: 2})
	after := tr.Observations["target"]
	if len(after) >= before {
		t.Fatalf("burst removed nothing (%d -> %d)", before, len(after))
	}
	for _, o := range after {
		if o.T >= 3 && o.T < 5 {
			t.Fatalf("observation at t=%.2f survived the burst", o.T)
		}
	}
}

func TestRandomDropDeterministic(t *testing.T) {
	a, b := testTrace(t, 2), testTrace(t, 2)
	Apply(a, 7, RandomDrop{Prob: 0.5})
	Apply(b, 7, RandomDrop{Prob: 0.5})
	oa, ob := a.Observations["target"], b.Observations["target"]
	if len(oa) != len(ob) {
		t.Fatalf("same seed, different survivor counts: %d vs %d", len(oa), len(ob))
	}
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatalf("survivor %d differs", i)
		}
	}
	full := testTrace(t, 2).Observations["target"]
	if len(oa) == len(full) {
		t.Fatal("50% drop removed nothing")
	}
}

func TestNonFiniteRSSIInjects(t *testing.T) {
	tr := testTrace(t, 3)
	Apply(tr, 3, NonFiniteRSSI{Prob: 0.3})
	bad := 0
	for _, o := range tr.Observations["target"] {
		if math.IsNaN(o.RSSI) || math.IsInf(o.RSSI, 0) {
			bad++
		}
	}
	if bad == 0 {
		t.Fatal("no non-finite RSSI injected")
	}
}

func TestClipRSSIRails(t *testing.T) {
	tr := testTrace(t, 4)
	Apply(tr, 4, ClipRSSI{Floor: -90, Ceil: -55})
	for _, o := range tr.Observations["target"] {
		if o.RSSI > -55 || o.RSSI < -90 {
			t.Fatalf("RSSI %.1f escaped the clip rails", o.RSSI)
		}
	}
}

func TestDuplicateAndReorderBreakMonotonicity(t *testing.T) {
	tr := testTrace(t, 5)
	Apply(tr, 5, DuplicateReports{Prob: 0.4}, ReorderReports{Window: 6})
	obs := tr.Observations["target"]
	inversions, dups := 0, 0
	for i := 1; i < len(obs); i++ {
		if obs[i].T < obs[i-1].T {
			inversions++
		}
		if obs[i].T == obs[i-1].T && obs[i].RSSI == obs[i-1].RSSI {
			dups++
		}
	}
	if inversions == 0 {
		t.Error("reorder produced a still-sorted stream")
	}
	if dups == 0 {
		t.Error("duplication produced no adjacent duplicates (after reorder some should remain)")
	}
}

func TestClockSkewShiftsTimes(t *testing.T) {
	tr := testTrace(t, 6)
	orig := append([]sim.BeaconObservation(nil), tr.Observations["target"]...)
	Apply(tr, 6, ClockSkew{Offset: 4})
	for i, o := range tr.Observations["target"] {
		if math.Abs(o.T-(orig[i].T+4)) > 1e-12 {
			t.Fatalf("obs %d: t=%.3f, want %.3f", i, o.T, orig[i].T+4)
		}
	}
}

func TestTruncateWindowCutsRSSAndIMU(t *testing.T) {
	tr := testTrace(t, 7)
	Apply(tr, 7, TruncateWindow{Keep: 2.5})
	for _, o := range tr.Observations["target"] {
		if o.T > 2.5 {
			t.Fatalf("observation at t=%.2f survived truncation", o.T)
		}
	}
	for _, s := range tr.IMU.Samples {
		if s.T > 2.5 {
			t.Fatalf("IMU sample at t=%.2f survived truncation", s.T)
		}
	}
	if tr.Duration > 2.5 {
		t.Errorf("duration %.2f not truncated", tr.Duration)
	}
}

func TestIMUDropoutAndSaturate(t *testing.T) {
	tr := testTrace(t, 8)
	Apply(tr, 8, IMUDropout{Start: 4, Duration: 2}, IMUSaturate{MaxAccel: 10})
	for _, s := range tr.IMU.Samples {
		if s.T >= 4 && s.T < 6 {
			t.Fatalf("IMU sample at t=%.2f inside dropout window", s.T)
		}
		for a := 0; a < 3; a++ {
			if math.Abs(s.Acc[a]) > 10 {
				t.Fatalf("accel %.2f above saturation rail", s.Acc[a])
			}
		}
	}
}

func TestCorruptPDULosesFramesOnly(t *testing.T) {
	tr := testTrace(t, 9)
	before := len(tr.Observations["target"])
	Apply(tr, 9, CorruptPDU{BitProb: 0.01})
	after := tr.Observations["target"]
	if len(after) == 0 || len(after) >= before {
		t.Fatalf("PDU corruption: %d -> %d observations, want partial loss", before, len(after))
	}
	// Values of survivors are untouched.
	for _, o := range after {
		if math.IsNaN(o.RSSI) {
			t.Fatal("corruption altered RSSI values")
		}
	}
}

func TestImpulseBurstSpikesInsideWindow(t *testing.T) {
	tr := testTrace(t, 10)
	orig := append([]sim.BeaconObservation(nil), tr.Observations["target"]...)
	Apply(tr, 10, ImpulseBurst{Start: 2, Duration: 3, Prob: 0.3, DeltaDB: 20})
	spiked := 0
	for i, o := range tr.Observations["target"] {
		d := o.RSSI - orig[i].RSSI
		switch {
		case d == 0:
		case d == 20:
			if o.T < 2 || o.T >= 5 {
				t.Fatalf("spike at t=%.2f outside [2,5)", o.T)
			}
			spiked++
		default:
			t.Fatalf("obs %d shifted by %.1f dB, want 0 or +20", i, d)
		}
	}
	if spiked == 0 {
		t.Fatal("no impulses injected")
	}
	if spiked == len(orig) {
		t.Fatal("every reading spiked — impulses must be sparse")
	}
}

func TestBeaconCloneInterleaves(t *testing.T) {
	tr := testTrace(t, 11)
	before := len(tr.Observations["target"])
	Apply(tr, 11, BeaconClone{OffsetDB: -25})
	obs := tr.Observations["target"]
	if len(obs) < 2*before-2 {
		t.Fatalf("clone interleaved %d -> %d observations, want ~2x", before, len(obs))
	}
	// Times stay sorted and adjacent deltas alternate sign with large
	// magnitude — the physically impossible signature.
	bigFlips := 0
	for i := 1; i < len(obs); i++ {
		if obs[i].T < obs[i-1].T {
			t.Fatalf("clone broke time ordering at %d", i)
		}
		if d := obs[i].RSSI - obs[i-1].RSSI; math.Abs(d) > 15 {
			bigFlips++
		}
	}
	if bigFlips < 10 {
		t.Fatalf("only %d large adjacent deltas — interleave too sparse", bigFlips)
	}
}

func TestTxPowerDecayRamps(t *testing.T) {
	tr := testTrace(t, 12)
	orig := append([]sim.BeaconObservation(nil), tr.Observations["target"]...)
	Apply(tr, 12, TxPowerDecay{Start: 1, RatePerS: 1.5})
	for i, o := range tr.Observations["target"] {
		want := orig[i].RSSI
		if dt := orig[i].T - 1; dt > 0 {
			want -= 1.5 * dt
		}
		if math.Abs(o.RSSI-want) > 1e-12 {
			t.Fatalf("obs %d: RSSI %.3f, want %.3f", i, o.RSSI, want)
		}
	}
}

func TestOutlierRunShiftsWindowOnly(t *testing.T) {
	tr := testTrace(t, 13)
	orig := append([]sim.BeaconObservation(nil), tr.Observations["target"]...)
	Apply(tr, 13, OutlierRun{Start: 3, Duration: 1.5, DeltaDB: 18})
	inRun := 0
	for i, o := range tr.Observations["target"] {
		d := o.RSSI - orig[i].RSSI
		if o.T >= 3 && o.T < 4.5 {
			if d != 18 {
				t.Fatalf("obs inside run shifted by %.1f, want +18", d)
			}
			inRun++
		} else if d != 0 {
			t.Fatalf("obs at t=%.2f outside the run shifted by %.1f", o.T, d)
		}
	}
	if inRun == 0 {
		t.Fatal("run window contained no observations")
	}
}

func TestChainNameAndApplyRSS(t *testing.T) {
	f := Chain(DropoutBurst{Start: 1, Duration: 1}, RandomDrop{Prob: 0.2})
	if f.Name() == "" {
		t.Fatal("empty chain name")
	}
	obs := []sim.BeaconObservation{{T: 0.5, RSSI: -60}, {T: 1.5, RSSI: -61}, {T: 2.5, RSSI: -62}}
	out := ApplyRSS(obs, 1, f)
	for _, o := range out {
		if o.T >= 1 && o.T < 2 {
			t.Fatalf("stream obs at t=%.2f survived burst", o.T)
		}
	}
	if len(obs) != 3 {
		t.Fatal("ApplyRSS mutated its input slice length")
	}
}

// TestApplyDeterministicAcrossBeacons pins seed determinism on a trace
// with several beacons: every beacon's random stream is split off one
// parent stream, so the split order must not follow Go's randomized map
// iteration. Six applications with one seed must agree exactly.
func TestApplyDeterministicAcrossBeacons(t *testing.T) {
	base, err := sim.Run(sim.Scenario{
		Beacons: []sim.BeaconSpec{
			{Name: "alpha", X: 6, Y: 3},
			{Name: "bravo", X: 2, Y: 5},
			{Name: "charlie", X: 7, Y: -1},
		},
		ObserverPlan: imu.Plan{Segments: imu.LShape(0, 4, 4)},
		EnvModel:     sim.StaticEnv(rf.LOS),
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var first map[string][]sim.BeaconObservation
	for call := 0; call < 6; call++ {
		tr := *base
		tr.Observations = make(map[string][]sim.BeaconObservation, len(base.Observations))
		for name, obs := range base.Observations {
			tr.Observations[name] = append([]sim.BeaconObservation(nil), obs...)
		}
		Apply(&tr, 1, RandomDrop{Prob: 0.2}, ImpulseBurst{})
		if call == 0 {
			first = tr.Observations
			continue
		}
		for name, want := range first {
			got := tr.Observations[name]
			if len(got) != len(want) {
				t.Fatalf("call %d, beacon %s: %d observations survived, first call kept %d", call+1, name, len(got), len(want))
			}
			for i := range got {
				if math.Float64bits(got[i].T) != math.Float64bits(want[i].T) ||
					math.Float64bits(got[i].RSSI) != math.Float64bits(want[i].RSSI) {
					t.Fatalf("call %d, beacon %s, sample %d: (t=%v, rssi=%v), first call (t=%v, rssi=%v)",
						call+1, name, i, got[i].T, got[i].RSSI, want[i].T, want[i].RSSI)
				}
			}
		}
	}
}
