package tasks

import (
	"testing"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/parexec"
	"repro/internal/radar"
	"repro/internal/rng"
)

// newTestIndex builds a fresh index for a registry name, or nil for
// the all-pairs scan.
func newTestIndex(name string) broadphase.Index {
	if name == "" {
		return nil
	}
	return broadphase.MustNew(name)
}

// matchSpec compares a detector's stats with the specification's. A
// pruning index evaluates fewer pairs, so only grid and sweep are let
// off the pair-check count.
func matchSpec(srcName string, spec, got DetectStats) bool {
	if srcName == broadphase.GridName || srcName == broadphase.SweepName {
		got.PairChecks = spec.PairChecks
	}
	return got == spec
}

func worldsEqual(t *testing.T, label string, want, got *airspace.World) {
	t.Helper()
	if len(want.Aircraft) != len(got.Aircraft) {
		t.Fatalf("%s: world sizes differ: %d vs %d", label, len(want.Aircraft), len(got.Aircraft))
	}
	for i := range want.Aircraft {
		if want.Aircraft[i] != got.Aircraft[i] {
			t.Fatalf("%s: aircraft %d diverged:\nserial:   %+v\nparallel: %+v",
				label, i, want.Aircraft[i], got.Aircraft[i])
		}
	}
}

func framesEqual(t *testing.T, label string, want, got *radar.Frame) {
	t.Helper()
	for i := range want.Reports {
		if want.Reports[i] != got.Reports[i] {
			t.Fatalf("%s: report %d diverged:\nserial:   %+v\nparallel: %+v",
				label, i, want.Reports[i], got.Reports[i])
		}
	}
}

// TestParallelMatchesSerial is the determinism property test: across
// 100 randomized worlds, every index, and worker counts {1, 2, 3, 8},
// the host-parallel Correlate and the Detector's Detect/DetectResolve
// produce world state, frame state, and stats identical to the serial
// specification, and pair-check counts identical across worker counts.
func TestParallelMatchesSerial(t *testing.T) {
	sources := append([]string{""}, broadphase.Names()...)
	serial := parexec.NewPool(1)
	pools := []*parexec.Pool{serial, parexec.NewPool(2), parexec.NewPool(3), parexec.NewPool(8)}

	for trial := 0; trial < 100; trial++ {
		seed := uint64(1000 + 7*trial)
		n := 40 + (trial*37)%360
		passes := 1 + trial%BoxPasses
		srcName := sources[trial%len(sources)]

		base := airspace.NewWorld(n, rng.New(seed))
		frame := radar.Generate(base, radar.DefaultNoise, rng.New(seed+1))

		// Serial reference chain: Task 1, then Task 2 on a fork, then
		// Tasks 2+3 on the correlated world. corrW snapshots the
		// post-Task-1 state before DetectResolve mutates refW further.
		refW := base.Clone()
		refF := frame.Clone()
		corrRef := NewCorrelator(serial).Correlate(refW, refF, passes)
		corrW := refW.Clone()
		refDetW := refW.Clone()
		detRef := Detect(refDetW)
		resRef := DetectResolve(refW)

		var detChecks, resChecks int
		for pi, p := range pools {
			gotW := base.Clone()
			gotF := frame.Clone()
			corr := NewCorrelator(p).Correlate(gotW, gotF, passes)
			tag := func(task string) string {
				return task + " (trial " + itoa(trial) + ", n " + itoa(n) + ", src " + srcName +
					", passes " + itoa(passes) + ", workers " + itoa(p.Workers()) + ")"
			}
			if corr != corrRef {
				t.Fatalf("%s: stats diverged:\nserial:   %+v\nparallel: %+v", tag("Correlate"), corrRef, corr)
			}
			worldsEqual(t, tag("Correlate"), corrW, gotW)
			framesEqual(t, tag("Correlate"), refF, gotF)

			d := NewDetector(newTestIndex(srcName), p)
			gotDetW := gotW.Clone()
			det := d.Detect(gotDetW)
			if !matchSpec(srcName, detRef, det) {
				t.Fatalf("%s: stats diverged:\nspec:     %+v\ndetector: %+v", tag("Detect"), detRef, det)
			}
			worldsEqual(t, tag("Detect"), refDetW, gotDetW)

			res := d.DetectResolve(gotW)
			if !matchSpec(srcName, resRef, res) {
				t.Fatalf("%s: stats diverged:\nspec:     %+v\ndetector: %+v", tag("DetectResolve"), resRef, res)
			}
			worldsEqual(t, tag("DetectResolve"), refW, gotW)
			if pi == 0 {
				detChecks, resChecks = det.PairChecks, res.PairChecks
			} else if det.PairChecks != detChecks || res.PairChecks != resChecks {
				t.Fatalf("%s: pair checks %d/%d vary with workers (serial %d/%d)", tag("DetectResolve"),
					det.PairChecks, res.PairChecks, detChecks, resChecks)
			}
		}
	}
}

// TestParallelMatchesSerialDense drives the paths the randomized sweep
// cannot reach at small n: a world big enough that many conflicted
// aircraft probe rotations against all 4000 aircraft through the dirty
// replay, and radar noise heavy enough that aircraft withdrawals
// release mid-pass radars into the serial fallback.
func TestParallelMatchesSerialDense(t *testing.T) {
	serial := parexec.NewPool(1)
	pools := []*parexec.Pool{serial, parexec.NewPool(2), parexec.NewPool(8)}

	big := airspace.NewWorld(4000, rng.New(99))
	refBig := big.Clone()
	resRef := DetectResolve(refBig)
	if resRef.Conflicts == 0 {
		t.Fatal("dense world produced no conflicts; test exercises nothing")
	}
	for _, p := range pools {
		gotBig := big.Clone()
		res := NewDetector(nil, p).DetectResolve(gotBig)
		if res != resRef {
			t.Fatalf("workers=%d: stats diverged:\nspec:     %+v\ndetector: %+v", p.Workers(), resRef, res)
		}
		worldsEqual(t, "DetectResolve dense (workers "+itoa(p.Workers())+")", refBig, gotBig)
	}

	// Noisy correlation: fixes land in several aircraft's boxes, forcing
	// withdrawals, discards, and mid-pass radar releases.
	noisy := airspace.NewWorld(1500, rng.New(17))
	frame := radar.Generate(noisy, 2.5, rng.New(18))
	refW := noisy.Clone()
	refF := frame.Clone()
	corrRef := NewCorrelator(serial).Correlate(refW, refF, BoxPasses)
	if corrRef.WithdrawnAircraft == 0 || corrRef.DiscardedRadars == 0 {
		t.Fatalf("noisy frame produced no contention (stats %+v); test exercises nothing", corrRef)
	}
	for _, p := range pools[1:] {
		gotW := noisy.Clone()
		gotF := frame.Clone()
		corr := NewCorrelator(p).Correlate(gotW, gotF, BoxPasses)
		if corr != corrRef {
			t.Fatalf("workers=%d: stats diverged:\nserial:   %+v\nparallel: %+v", p.Workers(), corrRef, corr)
		}
		worldsEqual(t, "Correlate noisy (workers "+itoa(p.Workers())+")", refW, gotW)
		framesEqual(t, "Correlate noisy (workers "+itoa(p.Workers())+")", refF, gotF)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestExecZeroAllocSteadyState pins the zero-allocation property of
// the hot paths. After a warm-up pass, a Detector's fused all-pairs
// pass and its table passes (every index) allocate nothing at any
// worker count: the detector owns all of its scratch, so the property
// holds however the garbage collector behaves. A kept Correlator
// allocates nothing on the serial path and only its fixed-size
// dispatch closures on the parallel path — never anything proportional
// to the aircraft count.
//
// The functions under this contract are exactly those listed in
// noallocContract (noalloc_manifest_test.go), which also carry
// //atm:noalloc directives enforced statically by make lint. Under
// -race the runtime counts are meaningless (detector instrumentation
// allocates) and this test skips; the manifest consistency test and
// the static analyzer keep the contract checked there.
func TestExecZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race; " +
			"the noalloc contract stays enforced by TestNoallocManifestMatchesDirectives and make lint")
	}
	base := airspace.NewWorld(600, rng.New(3))
	frame := radar.Generate(base, radar.DefaultNoise, rng.New(4))
	for _, workers := range []int{1, 2, 8} {
		p := parexec.NewPool(workers)
		for _, srcName := range append([]string{""}, broadphase.Names()...) {
			d := NewDetector(newTestIndex(srcName), p)
			w := base.Clone()
			pass := func() {
				w.Aircraft[0].X += 1e-3 // move the world so every pass rebuilds a changed table
				d.Detect(w)
				d.DetectResolve(w)
			}
			pass() // warm the detector's scratch and the worker pool
			if avg := testing.AllocsPerRun(10, pass); avg != 0 {
				t.Errorf("workers=%d src=%q: %.1f allocs per Detect+DetectResolve, want 0", workers, srcName, avg)
			}
		}

		// The Correlator owns its scratch, so the serial path allocates
		// nothing and the parallel path only one closure per phase it
		// dispatches (bodies capture per-invocation state): expected
		// positions, up to BoxPasses box passes, commit and wrap. That
		// is a constant per period, independent of n.
		limit := 0.0
		if workers > 1 {
			limit = 3 + BoxPasses
		}
		w, f := base.Clone(), frame.Clone()
		corr := NewCorrelator(p)
		correlate := func() { corr.Correlate(w, f, BoxPasses) }
		correlate()
		if avg := testing.AllocsPerRun(10, correlate); avg > limit {
			t.Errorf("workers=%d: %.1f allocs per Correlate, want <= %.1f", workers, avg, limit)
		}
	}
}
