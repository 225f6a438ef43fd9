package tasks

import (
	"testing"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/parexec"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// TestBatchedKernelMatchesScalar is the batched-vs-scalar differential:
// across randomized scenario families, the Detector — the candidate
// table feeding the branch-free 8-wide kernel — must produce worlds
// identical to the scalar serial specification for every index (none,
// brute, grid, sweep) at every worker count, through several
// consecutive detection rounds (so commits made by one round feed the
// next, exercising table reuse against a repaired index). Unpruned
// detectors match the specification's stats exactly; pruned ones match
// everything but the pair-check count, which must instead be identical
// across worker counts.
func TestBatchedKernelMatchesScalar(t *testing.T) {
	families := []string{
		"uniform",
		"circle:radius=12,speed=500",
		"burst:interval=30",
		"streams",
		"dense",
		"layers:gap=800",
	}
	pools := []*parexec.Pool{parexec.NewPool(1), parexec.NewPool(3), parexec.NewPool(8)}
	const rounds = 3

	for fi, fam := range families {
		spec, err := scenario.ParseSpec(fam)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		for trial := 0; trial < 3; trial++ {
			n := 160 + (fi*97+trial*53)%240
			if err := spec.Validate(n); err != nil {
				t.Fatalf("%s n=%d: %v", fam, n, err)
			}
			seed := uint64(9000 + 31*fi + trial)
			base := spec.Generate(n, rng.New(seed))

			// The specification chain and one detector chain per
			// (index, pool), advanced in lockstep round by round.
			type chain struct {
				label  string
				pruned bool
				w      *airspace.World
				det    *Detector
			}
			ref := base.Clone()
			var got []chain
			for _, name := range append([]string{""}, broadphase.Names()...) {
				for _, p := range pools {
					var idx broadphase.Index
					if name != "" {
						idx = broadphase.MustNew(name)
					}
					got = append(got, chain{
						label:  "index " + name + "/w" + itoa(p.Workers()),
						pruned: name == broadphase.GridName || name == broadphase.SweepName,
						w:      base.Clone(),
						det:    NewDetector(idx, p),
					})
				}
			}

			for round := 0; round < rounds; round++ {
				tag := func(c chain, task string) string {
					return fam + " trial " + itoa(trial) + " round " + itoa(round) + " " + task + " " + c.label
				}
				// Detection alone on forks, so the fused task below sees
				// identical inputs on every chain.
				detW := ref.Clone()
				detRef := Detect(detW)
				resRef := DetectResolve(ref)
				var detChecks, resChecks int
				for k, c := range got {
					dw := c.w.Clone()
					det := c.det.Detect(dw)
					res := c.det.DetectResolve(c.w)
					if k%len(pools) == 0 {
						detChecks, resChecks = det.PairChecks, res.PairChecks
					} else if det.PairChecks != detChecks || res.PairChecks != resChecks {
						t.Fatalf("%s: pair checks %d/%d vary with workers (w1: %d/%d)", tag(c, "DetectResolve"),
							det.PairChecks, res.PairChecks, detChecks, resChecks)
					}
					if c.pruned {
						det.PairChecks, res.PairChecks = detRef.PairChecks, resRef.PairChecks
					}
					if det != detRef {
						t.Fatalf("%s: stats diverged:\nscalar:  %+v\nbatched: %+v", tag(c, "Detect"), detRef, det)
					}
					worldsEqual(t, tag(c, "Detect"), detW, dw)
					if res != resRef {
						t.Fatalf("%s: stats diverged:\nscalar:  %+v\nbatched: %+v", tag(c, "DetectResolve"), resRef, res)
					}
					worldsEqual(t, tag(c, "DetectResolve"), ref, c.w)
				}
				// Fly the committed courses so the next round's index — and
				// the sweep chains' repairs — see moved traffic.
				advance := func(w *airspace.World) {
					for i := range w.Aircraft {
						a := &w.Aircraft[i]
						a.X += a.DX
						a.Y += a.DY
						airspace.Wrap(a)
					}
				}
				advance(ref)
				for _, c := range got {
					advance(c.w)
				}
			}
		}
	}
}
