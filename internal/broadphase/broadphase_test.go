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

// randomWorld builds a world whose traffic density is controlled by
// spread: positions are compressed toward the origin by the spread
// factor and altitudes are squeezed into a few bands so that a
// meaningful fraction of pairs is in real conflict.
func randomWorld(r *rng.Rand, n int, spread float64) *airspace.World {
	w := airspace.NewWorld(n, r)
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		a.X *= spread
		a.Y *= spread
		// Three altitude bands 800 ft apart: within-band pairs overlap
		// (|dAlt| < AltBandFeet), cross-band pairs mostly do not.
		band := float64(r.IntN(3)) * 800
		a.Alt = 20000 + band + r.Range(0, 150)
	}
	return w
}

// sources returns fresh instances of every registered index.
func sources(t *testing.T) []broadphase.Index {
	t.Helper()
	var out []broadphase.Index
	for _, name := range broadphase.Names() {
		src, err := broadphase.New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		out = append(out, src)
	}
	return out
}

// build snapshots w into columns and builds idx's table on p.
func build(idx broadphase.Index, w *airspace.World, p *parexec.Pool) *broadphase.PairTable {
	var c airspace.Columns
	c.FillFrom(w)
	return idx.Build(&c, p)
}

// row returns track i's candidates, reading the nil (all-pairs) table
// as every aircraft.
func row(tab *broadphase.PairTable, n, i int) []int32 {
	if tab != nil {
		return tab.Candidates(i)
	}
	all := make([]int32, n)
	for k := range all {
		all[k] = int32(k)
	}
	return all
}

// detect and detectResolve run one pass of a fresh detector over w;
// a nil idx is the all-pairs scan.
func detect(w *airspace.World, idx broadphase.Index) tasks.DetectStats {
	return tasks.NewDetector(idx, nil).Detect(w)
}

func detectResolve(w *airspace.World, idx broadphase.Index) tasks.DetectStats {
	return tasks.NewDetector(idx, nil).DetectResolve(w)
}

// checkStatsEqual compares every DetectStats field except PairChecks,
// which legitimately differs between pruned and unpruned scans.
func checkStatsEqual(t *testing.T, label string, want, got tasks.DetectStats) {
	t.Helper()
	if want.Conflicts != got.Conflicts || want.Rotations != got.Rotations ||
		want.Resolved != got.Resolved || want.Unresolved != got.Unresolved {
		t.Errorf("%s: stats diverge: want %+v, got %+v", label, want, got)
	}
}

// checkWorldsEqual requires bit-identical aircraft state: detection and
// resolution under a pruned source must be indistinguishable from the
// all-pairs reference.
func checkWorldsEqual(t *testing.T, label string, want, got *airspace.World) {
	t.Helper()
	if want.N() != got.N() {
		t.Fatalf("%s: world sizes differ: %d vs %d", label, want.N(), got.N())
	}
	for i := range want.Aircraft {
		a, b := &want.Aircraft[i], &got.Aircraft[i]
		if a.Col != b.Col || a.ColWith != b.ColWith || a.TimeTill != b.TimeTill {
			t.Errorf("%s: aircraft %d conflict state diverges: want Col=%v ColWith=%d TimeTill=%v, got Col=%v ColWith=%d TimeTill=%v",
				label, i, a.Col, a.ColWith, a.TimeTill, b.Col, b.ColWith, b.TimeTill)
		}
		if a.DX != b.DX || a.DY != b.DY || a.BatX != b.BatX || a.BatY != b.BatY {
			t.Errorf("%s: aircraft %d course diverges: want (%v,%v) bat (%v,%v), got (%v,%v) bat (%v,%v)",
				label, i, a.DX, a.DY, a.BatX, a.BatY, b.DX, b.DY, b.BatX, b.BatY)
		}
	}
}

// TestSourcesAgree is the core exactness property: on randomized worlds
// of varying size and density, Detect and DetectResolve under Brute,
// Grid, and Sweep must produce bit-identical results to the all-pairs
// reference — same conflict count, same earliest-critical pairs, same
// committed resolution courses.
func TestSourcesAgree(t *testing.T) {
	r := rng.New(0xb20adfa5e)
	worlds := 0
	for _, spread := range []float64{1, 0.3, 0.1} {
		for trial := 0; trial < 36; trial++ {
			n := 40 + r.IntN(260)
			base := randomWorld(r.Split(), n, spread)
			worlds++

			// Reference: the serial all-pairs specification.
			refDet := base.Clone()
			refDetSt := tasks.Detect(refDet)
			refRes := base.Clone()
			refResSt := tasks.DetectResolve(refRes)

			for _, src := range sources(t) {
				label := src.Name()
				wd := base.Clone()
				st := detect(wd, src)
				checkStatsEqual(t, label+"/detect", refDetSt, st)
				checkWorldsEqual(t, label+"/detect", refDet, wd)

				wr := base.Clone()
				st = detectResolve(wr, src)
				checkStatsEqual(t, label+"/resolve", refResSt, st)
				checkWorldsEqual(t, label+"/resolve", refRes, wr)
			}
		}
	}
	if worlds < 100 {
		t.Fatalf("property exercised only %d worlds, want >= 100", worlds)
	}
}

// TestGridSeamWraparound pins the torus-folding behaviour of the grid:
// traffic clustered right at the (x, y) -> (-x, -y) field exit seam —
// aircraft sitting just inside opposite edges and corners, with
// envelopes spilling past them — must detect and resolve exactly like
// Brute, and the grid's candidate sets must remain supersets of every
// critically conflicting pair.
func TestGridSeamWraparound(t *testing.T) {
	r := rng.New(0x5ea3)
	for trial := 0; trial < 40; trial++ {
		n := 60 + r.IntN(120)
		w := airspace.NewWorld(n, r.Split())
		for i := range w.Aircraft {
			a := &w.Aircraft[i]
			// Park each aircraft within a couple of nm of a field edge
			// (or corner), on either side of the seam.
			edge := airspace.FieldHalf - r.Range(0, 2)
			sx, sy := r.Sign(), r.Sign()
			switch r.IntN(3) {
			case 0: // x seam
				a.X = edge * sx
				a.Y = r.Range(-airspace.FieldHalf, airspace.FieldHalf)
			case 1: // y seam
				a.X = r.Range(-airspace.FieldHalf, airspace.FieldHalf)
				a.Y = edge * sy
			default: // corner
				a.X = edge * sx
				a.Y = (airspace.FieldHalf - r.Range(0, 2)) * sy
			}
			a.Alt = 25000 + r.Range(0, 400)
		}

		grid := broadphase.NewGrid()
		refDet := w.Clone()
		refSt := detect(refDet, broadphase.NewBrute())
		gw := w.Clone()
		gst := detect(gw, grid)
		checkStatsEqual(t, "seam/detect", refSt, gst)
		checkWorldsEqual(t, "seam/detect", refDet, gw)

		refRes := w.Clone()
		refResSt := tasks.DetectResolve(refRes)
		gr := w.Clone()
		grSt := detectResolve(gr, broadphase.NewGrid())
		checkStatsEqual(t, "seam/resolve", refResSt, grSt)
		checkWorldsEqual(t, "seam/resolve", refRes, gr)

		// Explicit superset check on the original snapshot: every pair
		// whose conflict window opens before the prune horizon must be
		// in the grid's candidate set.
		tab := build(grid, w, nil)
		for i := range w.Aircraft {
			a := &w.Aircraft[i]
			cand := tab.Candidates(i)
			for j := range w.Aircraft {
				if i == j {
					continue
				}
				b := &w.Aircraft[j]
				if !tasks.AltOverlap(a, b) {
					continue
				}
				tmin, tmax, ok := tasks.PairConflict(a.X, a.Y, a.DX, a.DY, b)
				if !ok || tmin >= tmax || tmin >= broadphase.PruneHorizon {
					continue
				}
				if !containsID(cand, int32(j)) {
					t.Fatalf("trial %d: grid dropped critical pair (%d, %d) with tmin %v: candidates %v",
						trial, i, j, tmin, cand)
				}
			}
		}
	}
}

// TestCandidatesSortedAndSuperset checks the two structural halves of
// the Index contract on random dense worlds: ascending rows and the
// critical-pair superset property, for every index.
func TestCandidatesSortedAndSuperset(t *testing.T) {
	r := rng.New(0xca9d)
	for trial := 0; trial < 25; trial++ {
		w := randomWorld(r.Split(), 50+r.IntN(150), 0.25)
		for _, src := range sources(t) {
			tab := build(src, w, nil)
			for i := range w.Aircraft {
				a := &w.Aircraft[i]
				cand := row(tab, w.N(), i)
				for k := 1; k < len(cand); k++ {
					if cand[k-1] >= cand[k] {
						t.Fatalf("%s: candidates for %d not strictly ascending: %v", src.Name(), i, cand)
					}
				}
				for j := range w.Aircraft {
					if i == j {
						continue
					}
					b := &w.Aircraft[j]
					tmin, tmax, ok := tasks.PairConflict(a.X, a.Y, a.DX, a.DY, b)
					if !ok || tmin >= tmax || tmin >= broadphase.PruneHorizon {
						continue
					}
					if !containsID(cand, int32(j)) {
						t.Fatalf("%s: dropped critical pair (%d, %d), tmin %v", src.Name(), i, j, tmin)
					}
				}
			}
		}
	}
}

func containsID(ids []int32, id int32) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// TestReachBoundsTravel sanity-checks the envelope half-width: within
// PruneHorizon periods an aircraft cannot leave its reach box on either
// axis, under any heading of the same speed.
func TestReachBoundsTravel(t *testing.T) {
	r := rng.New(7)
	w := airspace.NewWorld(64, r)
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		reach := broadphase.ReachAt(a.DX, a.DY)
		speed := math.Hypot(a.DX, a.DY)
		travel := speed*broadphase.PruneHorizon + airspace.SepTotal/2
		if reach < travel {
			t.Fatalf("aircraft %d: reach %v below worst-case travel %v", i, reach, travel)
		}
	}
}

func TestEmptyAndTinyWorlds(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		w := airspace.NewWorld(n, rng.New(uint64(n)+1))
		for _, src := range sources(t) {
			st := detect(w.Clone(), src)
			ref := tasks.Detect(w.Clone())
			checkStatsEqual(t, src.Name(), ref, st)
		}
	}
}

func TestFixedCellGridAgrees(t *testing.T) {
	r := rng.New(0xce11)
	base := randomWorld(r, 120, 0.2)
	ref := base.Clone()
	refSt := tasks.DetectResolve(ref)
	for _, cell := range []float64{4, 16, 100, 500} {
		w := base.Clone()
		st := detectResolve(w, broadphase.NewGridCell(cell))
		checkStatsEqual(t, "fixed-cell", refSt, st)
		checkWorldsEqual(t, "fixed-cell", ref, w)
	}
}

func TestNewGridCellPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGridCell(0) did not panic")
		}
	}()
	broadphase.NewGridCell(0)
}

func TestRegistry(t *testing.T) {
	for _, name := range broadphase.Names() {
		src := broadphase.MustNew(name)
		if src.Name() != name {
			t.Errorf("MustNew(%q).Name() = %q", name, src.Name())
		}
	}
	if _, err := broadphase.New("quadtree"); err == nil {
		t.Error("New with unknown name did not error")
	}
}

// TestPruningPrunes guards against the trivial "return everything"
// implementation: on a sparse full-field world the pruned sources must
// evaluate strictly fewer pairs than brute force.
func TestPruningPrunes(t *testing.T) {
	w := airspace.NewWorld(2000, rng.New(42))
	brute := detect(w.Clone(), broadphase.NewBrute())
	for _, name := range []string{broadphase.GridName, broadphase.SweepName} {
		st := detect(w.Clone(), broadphase.MustNew(name))
		if st.PairChecks >= brute.PairChecks {
			t.Errorf("%s: %d pair checks, brute %d — no pruning", name, st.PairChecks, brute.PairChecks)
		}
	}
}
