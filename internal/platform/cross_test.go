package platform

import (
	"testing"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/radar"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/tasks"
)

// The CUDA, wide-vector and multicore machines all run Tasks 2-3 with
// the snapshot discipline (scan a frozen copy of committed courses,
// write only your own aircraft, commit at a barrier) through the shared
// kernel in internal/tasks. Each must reproduce the serial scalar
// specification tasks.DetectResolveSnapshot bit for bit, with and
// without a pruning index, on uniform and conflict-saturated traffic,
// at any worker count, and across consecutive passes (so the second
// pass runs on the first one's commits and a repaired index).
func TestSnapshotPlatformsAgreeOnDetectResolve(t *testing.T) {
	dense, err := scenario.ParseSpec("dense:clusters=128,radius=2")
	if err != nil {
		t.Fatal(err)
	}
	// Uniform traffic commits headings; dense traffic saturates every
	// rotation probe.
	traffic := []struct {
		name     string
		w        *airspace.World
		resolves bool
	}{
		{"uniform", airspace.NewWorld(700, rng.New(101)), true},
		{"dense", dense.Generate(700, rng.New(102)), false},
	}
	const rounds = 2
	for _, tr := range traffic {
		want := make([]*airspace.World, rounds)
		ref := tr.w.Clone()
		var resolved, unresolved int
		for r := range want {
			st := tasks.DetectResolveSnapshot(ref)
			resolved += st.Resolved
			unresolved += st.Unresolved
			want[r] = ref.Clone()
		}
		if tr.resolves && resolved == 0 || !tr.resolves && unresolved == 0 {
			t.Fatalf("%s: specification resolved %d and left %d unresolved; the test exercises too little",
				tr.name, resolved, unresolved)
		}
		for _, name := range []string{TitanXPascal, Xeon16, XeonPhi} {
			for _, src := range []string{"", broadphase.SweepName} {
				for _, workers := range []int{1, 3, 8} {
					p := MustNew(name, 1)
					p.(Workered).SetWorkers(workers)
					if src != "" {
						p.(PairSourced).SetPairSource(broadphase.MustNew(src))
					}
					w := tr.w.Clone()
					for r := range want {
						p.DetectResolve(w)
						for j := range want[r].Aircraft {
							if want[r].Aircraft[j] != w.Aircraft[j] {
								t.Fatalf("%s %s src=%q workers=%d pass %d: aircraft %d differs from the specification:\nspec: %+v\ngot:  %+v",
									tr.name, name, src, workers, r, j, want[r].Aircraft[j], w.Aircraft[j])
							}
						}
					}
				}
			}
		}
	}
}

// The AP program implements the sequential reference exactly; the
// snapshot platforms may differ from it only in how mutually
// conflicting pairs maneuver. On traffic with no critical conflicts,
// every platform must agree bitwise with the reference.
func TestAllPlatformsAgreeOnCalmTraffic(t *testing.T) {
	// Spread-out grid, common heading: no conflicts anywhere.
	base := &airspace.World{Aircraft: make([]airspace.Aircraft, 300)}
	for i := range base.Aircraft {
		a := &base.Aircraft[i]
		a.ID = int32(i)
		a.X = float64(i%20)*12 - 114
		a.Y = float64(i/20)*12 - 90
		a.DX, a.DY = 0.03, 0.01
		a.Alt = 5000 + float64(i%7)*4000
		a.ResetConflict()
	}
	ref := base.Clone()
	tasks.DetectResolve(ref)

	for _, name := range append(Names(), ExtensionNames()...) {
		w := base.Clone()
		MustNew(name, 1).DetectResolve(w)
		for j := range ref.Aircraft {
			if ref.Aircraft[j] != w.Aircraft[j] {
				t.Fatalf("%s: aircraft %d differs from reference on calm traffic", name, j)
			}
		}
	}
}

// On clean, unambiguous radar geometry every platform's Task 1 must
// land every aircraft on its radar fix — identical final positions
// across all eight machines and the reference.
func TestAllPlatformsAgreeOnCleanTrack(t *testing.T) {
	base := &airspace.World{Aircraft: make([]airspace.Aircraft, 256)}
	for i := range base.Aircraft {
		a := &base.Aircraft[i]
		a.ID = int32(i)
		a.X = float64(i%16)*8 - 60
		a.Y = float64(i/16)*8 - 60
		a.DX, a.DY = 0.02, -0.01
		a.Alt = 10000
		a.ResetConflict()
	}
	frame := radar.Generate(base, 0.2, rng.New(55))

	ref := base.Clone()
	refFrame := frame.Clone()
	tasks.Correlate(ref, refFrame)

	for _, name := range append(Names(), ExtensionNames()...) {
		w := base.Clone()
		f := frame.Clone()
		MustNew(name, 1).Track(w, f)
		for j := range ref.Aircraft {
			if ref.Aircraft[j].X != w.Aircraft[j].X || ref.Aircraft[j].Y != w.Aircraft[j].Y {
				t.Fatalf("%s: aircraft %d position differs from reference on clean radar", name, j)
			}
		}
	}
}
