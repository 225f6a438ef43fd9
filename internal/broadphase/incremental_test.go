package broadphase_test

import (
	"math"
	"testing"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/parexec"
	"repro/internal/rng"
	"repro/internal/tasks"
)

// advancePeriod applies one period's worth of randomized disruption to
// the world: per-period motion with torus wraparound, resolution-style
// velocity rotations on a few aircraft, and (periodically) degenerate
// exactly-stacked positions that force equal sort keys.
func advancePeriod(r *rng.Rand, w *airspace.World, period int) {
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		a.X += a.DX
		a.Y += a.DY
		if !airspace.InField(a.X, a.Y) {
			airspace.Wrap(a)
		}
	}
	n := w.N()
	if n == 0 {
		return
	}
	for k := 0; k < 1+n/40; k++ {
		a := &w.Aircraft[r.IntN(n)]
		deg := (5 + 5*float64(r.IntN(6))) * r.Sign()
		sin, cos := math.Sincos(deg * math.Pi / 180)
		a.DX, a.DY = a.DX*cos-a.DY*sin, a.DX*sin+a.DY*cos
	}
	if period%7 == 3 && n >= 2 {
		i, j := r.IntN(n), r.IntN(n)
		w.Aircraft[i].X, w.Aircraft[i].Y = w.Aircraft[j].X, w.Aircraft[j].Y
		w.Aircraft[i].Alt = w.Aircraft[j].Alt
	}
}

// TestIncrementalSweepCandidatesIdentical is the coherence property at
// the table level: through long randomized mutation sequences (motion,
// rotations, wraparounds, stacked positions) the sweep that repairs its
// persistent order must build exactly the table a freshly sorted sweep
// builds — same rows, same order — every period.
func TestIncrementalSweepCandidatesIdentical(t *testing.T) {
	r := rng.New(0x1c0e)
	for _, n := range []int{0, 1, 2, 17, 120, 300} {
		w := randomWorld(r.Split(), n, 0.3)
		persistent := broadphase.NewSweep()
		for period := 0; period < 48; period++ {
			advancePeriod(r, w, period)
			got := build(persistent, w, nil)
			want := build(broadphase.NewSweep(), w, nil)
			if msg := diffTables(want, got); msg != "" {
				t.Fatalf("n=%d period=%d: repaired table diverges from a fresh sort: %s", n, period, msg)
			}
		}
		if n > 1 {
			st := persistent.TakeStats()
			if st.Updates == 0 {
				t.Errorf("n=%d: sweep never repaired in place (stats %+v)", n, st)
			}
		}
	}
}

// TestIncrementalSweepDetectionAgrees drives full detection/resolution
// through a mutation sequence under brute, grid and sweep detectors
// that persist across periods, at workers {1, 3, 8}: every period,
// every index, every worker count must produce the bit-identical world
// the serial all-pairs specification produces.
func TestIncrementalSweepDetectionAgrees(t *testing.T) {
	type lane struct {
		label string
		det   *tasks.Detector
		w     *airspace.World
	}
	r := rng.New(0xdead)
	base := randomWorld(r.Split(), 180, 0.25)

	ref := base.Clone()
	var lanes []*lane
	for _, workers := range []int{1, 3, 8} {
		pool := parexec.NewPool(workers)
		for _, name := range broadphase.Names() {
			lanes = append(lanes, &lane{name, tasks.NewDetector(broadphase.MustNew(name), pool), base.Clone()})
		}
	}

	for period := 0; period < 24; period++ {
		// Apply the identical mutation to every lane's world: replaying
		// the generator from the same seed keeps the lanes in lockstep
		// without sharing mutable state.
		advancePeriod(rngReplay(0xfeed, period), ref, period)
		refSt := tasks.DetectResolve(ref)
		for _, l := range lanes {
			advancePeriod(rngReplay(0xfeed, period), l.w, period)
			st := l.det.DetectResolve(l.w)
			checkStatsEqual(t, l.label, refSt, st)
			checkWorldsEqual(t, l.label, ref, l.w)
		}
	}
}

// rngReplay returns the generator advancePeriod would have received on
// the given period when splitting one master stream per period from
// seed: deterministic replay without sharing a mutable Rand across
// lanes.
func rngReplay(seed uint64, period int) *rng.Rand {
	m := rng.New(seed)
	var r *rng.Rand
	for p := 0; p <= period; p++ {
		r = m.Split()
	}
	return r
}

// TestIncrementalSweepFallbackRebuild forces the repair budget to blow:
// scrambling every position each period makes the previous order
// worthless, the insertion pass aborts, and Build must fall back to
// the full sort — still producing the table a fresh sweep builds, and
// counting the fallback.
func TestIncrementalSweepFallbackRebuild(t *testing.T) {
	r := rng.New(0xfa11)
	w := randomWorld(r.Split(), 250, 0.3)
	persistent := broadphase.NewSweep()
	var total broadphase.Stats
	for period := 0; period < 6; period++ {
		// Teleport everyone: fresh random positions, no coherence.
		for i := range w.Aircraft {
			a := &w.Aircraft[i]
			a.X = r.Range(-airspace.SetupHalf, airspace.SetupHalf) * 0.3
			a.Y = r.Range(-airspace.SetupHalf, airspace.SetupHalf) * 0.3
		}
		got := build(persistent, w, nil)
		st := persistent.TakeStats()
		if period > 0 && (st.Rebuilds != 1 || st.Updates != 0) {
			t.Errorf("period %d: scrambled world repaired within budget; expected fallback, stats %+v", period, st)
		}
		total.Rebuilds += st.Rebuilds
		if msg := diffTables(build(broadphase.NewSweep(), w, nil), got); msg != "" {
			t.Fatalf("period %d: table diverges after fallback: %s", period, msg)
		}
	}
	if total.Rebuilds < 5 {
		t.Errorf("expected >=5 fallback rebuilds on scrambled worlds, got %d", total.Rebuilds)
	}
	if got := persistent.TakeStats(); got != (broadphase.Stats{}) {
		t.Errorf("TakeStats did not drain: %+v", got)
	}
}

// TestIncrementalSweepStats pins the steady-state telemetry shape: under
// gentle per-period motion the sweep repairs in place every build after
// the first, and the shift work stays far below the fallback budget.
func TestIncrementalSweepStats(t *testing.T) {
	r := rng.New(0x57a7)
	w := randomWorld(r.Split(), 400, 0.5)
	sweep := broadphase.NewSweep()
	tab := build(sweep, w, nil)
	first := sweep.TakeStats()
	if first.Rebuilds != 1 || first.Updates != 0 {
		t.Fatalf("initial Build: want exactly one rebuild, got %+v", first)
	}
	if first.Queries != 400 || first.Candidates != int64(len(tab.Cand)) || first.Segments != 2 {
		t.Fatalf("initial Build: want 400 queries, %d candidates and 2 segments, got %+v", len(tab.Cand), first)
	}
	const periods = 32
	for period := 0; period < periods; period++ {
		for i := range w.Aircraft {
			a := &w.Aircraft[i]
			a.X += a.DX
			a.Y += a.DY
			if !airspace.InField(a.X, a.Y) {
				airspace.Wrap(a)
			}
		}
		build(sweep, w, nil)
	}
	st := sweep.TakeStats()
	if st.Updates != periods || st.Rebuilds != 0 {
		t.Fatalf("steady state: want %d updates and no rebuilds, got %+v", periods, st)
	}
	if st.Resorted > st.Moved {
		t.Errorf("stats inconsistent: resorted %d > moved %d", st.Resorted, st.Moved)
	}
}
