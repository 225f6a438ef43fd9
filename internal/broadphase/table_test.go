package broadphase_test

import (
	"fmt"
	"testing"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/parexec"
	"repro/internal/rng"
)

// overlapOracle is the brute envelope-overlap oracle: row i lists, in
// ascending order, every aircraft whose reach envelope overlaps track
// i's on both axes (the track itself included), by direct comparison
// of every pair.
func overlapOracle(w *airspace.World) [][]int32 {
	n := w.N()
	lox, hix := make([]float64, n), make([]float64, n)
	loy, hiy := make([]float64, n), make([]float64, n)
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		r := broadphase.ReachAt(a.DX, a.DY)
		lox[i], hix[i] = a.X-r, a.X+r
		loy[i], hiy[i] = a.Y-r, a.Y+r
	}
	rows := make([][]int32, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if lox[j] <= hix[i] && hix[j] >= lox[i] && loy[j] <= hiy[i] && hiy[j] >= loy[i] {
				rows[i] = append(rows[i], int32(j))
			}
		}
	}
	return rows
}

// diffTables describes the first difference between two tables, or
// returns "" when they are byte-identical.
func diffTables(want, got *broadphase.PairTable) string {
	if len(want.Start) != len(got.Start) || len(want.Cand) != len(got.Cand) {
		return fmt.Sprintf("shape %d/%d, want %d/%d", len(got.Start), len(got.Cand), len(want.Start), len(want.Cand))
	}
	for i := range want.Start {
		if want.Start[i] != got.Start[i] {
			return fmt.Sprintf("Start[%d] = %d, want %d", i, got.Start[i], want.Start[i])
		}
	}
	for i := range want.Cand {
		if want.Cand[i] != got.Cand[i] {
			return fmt.Sprintf("Cand[%d] = %d, want %d", i, got.Cand[i], want.Cand[i])
		}
	}
	return ""
}

// checkAgainstOracle requires every row of tab to hold the oracle's
// row: exactly (exact) or as an ascending superset.
func checkAgainstOracle(t *testing.T, label string, tab *broadphase.PairTable, oracle [][]int32, exact bool) {
	t.Helper()
	for i, want := range oracle {
		got := tab.Candidates(i)
		for k := 1; k < len(got); k++ {
			if got[k-1] >= got[k] {
				t.Fatalf("%s: row %d not strictly ascending: %v", label, i, got)
			}
		}
		if exact && len(got) != len(want) {
			t.Fatalf("%s: row %d has %d candidates, oracle %d (got %v, want %v)", label, i, len(got), len(want), got, want)
		}
		k := 0 // both rows ascend, so one merge walk checks containment
		for _, j := range want {
			for k < len(got) && got[k] < j {
				k++
			}
			if k == len(got) || got[k] != j {
				t.Fatalf("%s: row %d misses overlapping aircraft %d (got %v)", label, i, j, got)
			}
		}
	}
}

// TestPairTableMatchesQueries is the table exactness property: through
// long randomized mutation sequences, the sweep's row for every track
// must be exactly the brute envelope-overlap query's, the grid's a
// superset of it, and the tables built on different pools
// byte-identical to each other.
func TestPairTableMatchesQueries(t *testing.T) {
	pools := []*parexec.Pool{nil, parexec.NewPool(1), parexec.NewPool(3), parexec.NewPool(8)}
	r := rng.New(0x7ab1e)
	for _, name := range []string{broadphase.SweepName, broadphase.GridName} {
		for _, n := range []int{0, 1, 2, 17, 120, 300, 700} {
			w := randomWorld(r.Split(), n, 0.3)
			idx := make([]broadphase.Index, len(pools))
			for i := range pools {
				idx[i] = broadphase.MustNew(name)
			}
			for period := 0; period < 24; period++ {
				advancePeriod(r, w, period)
				oracle := overlapOracle(w)
				first := build(idx[0], w, pools[0])
				checkAgainstOracle(t, fmt.Sprintf("%s n=%d period=%d", name, n, period), first, oracle, name == broadphase.SweepName)
				for pi := 1; pi < len(pools); pi++ {
					if msg := diffTables(first, build(idx[pi], w, pools[pi])); msg != "" {
						t.Fatalf("%s n=%d period=%d pool %d: %s", name, n, period, pi, msg)
					}
				}
			}
		}
	}
}

// TestPairTableRepeatable: rebuilding the table from the same snapshot
// yields the identical layout (Start and Cand byte-for-byte), and the
// repeated build is a zero-shift repair.
func TestPairTableRepeatable(t *testing.T) {
	r := rng.New(0x7ab1e2)
	w := randomWorld(r.Split(), 400, 0.3)
	s := broadphase.NewSweep()
	p := parexec.NewPool(4)
	first := build(s, w, p)
	want := &broadphase.PairTable{
		Start: append([]int32(nil), first.Start...),
		Cand:  append([]int32(nil), first.Cand...),
	}
	s.TakeStats()
	for trial := 0; trial < 3; trial++ {
		if msg := diffTables(want, build(s, w, p)); msg != "" {
			t.Fatalf("trial %d: %s", trial, msg)
		}
	}
	if st := s.TakeStats(); st.Updates != 3 || st.Moved != 0 {
		t.Fatalf("repeated builds: want 3 zero-shift updates, got %+v", st)
	}
}

// TestShardedRepairOrderInvariant: the run-partitioned repair must
// produce identical tables and identical statistics at every worker
// count, serial included.
func TestShardedRepairOrderInvariant(t *testing.T) {
	r := rng.New(0x5eed5)
	w := randomWorld(r.Split(), 1500, 0.3)
	pools := []*parexec.Pool{nil, parexec.NewPool(1), parexec.NewPool(3), parexec.NewPool(8)}
	sweeps := make([]*broadphase.Sweep, len(pools))
	for i := range pools {
		sweeps[i] = broadphase.NewSweep()
	}
	for period := 0; period < 40; period++ {
		advancePeriod(r, w, period)
		first := build(sweeps[0], w, pools[0])
		for i := 1; i < len(pools); i++ {
			if msg := diffTables(first, build(sweeps[i], w, pools[i])); msg != "" {
				t.Fatalf("period %d pool %d: %s", period, i, msg)
			}
		}
	}
	st0 := sweeps[0].TakeStats()
	for i := 1; i < len(sweeps); i++ {
		if st := sweeps[i].TakeStats(); st != st0 {
			t.Fatalf("stats vary with workers: pool %d %+v vs serial %+v", i, st, st0)
		}
	}
}

// lineWorld makes n aircraft at x = i*spacing on one line, at one
// altitude, barely moving.
func lineWorld(n int, spacing float64) *airspace.World {
	w := &airspace.World{Aircraft: make([]airspace.Aircraft, n)}
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		a.ID = int32(i)
		a.X = float64(i) * spacing
		a.Alt = 10000
		a.DX = 0.001
	}
	return w
}

// TestRepairSplitsRunsOnSuffixMinimum pins the run-boundary rule of the
// parallel repair. One teleport carries an aircraft from the third
// repair block to the far left: block 1's own minimum is still above
// block 0's maximum, but the teleported key in block 2 is not, so no
// run may end before block 2 either. The repaired table must equal a
// freshly sorted sweep's and contain the brute envelope-overlap oracle.
func TestRepairSplitsRunsOnSuffixMinimum(t *testing.T) {
	const n = 1536
	w := lineWorld(n, 50)
	for _, p := range []*parexec.Pool{nil, parexec.NewPool(3)} {
		s := broadphase.NewSweep()
		build(s, w, p)
		w.Aircraft[1100].X = 5 // rank 1100 (block 2) to rank 1
		got := build(s, w, p)
		if st := s.TakeStats(); st.Updates != 1 {
			t.Fatalf("teleport should repair in place, stats %+v", st)
		}
		if msg := diffTables(build(broadphase.NewSweep(), w, nil), got); msg != "" {
			t.Fatalf("repaired table diverges from a fresh sort: %s", msg)
		}
		checkAgainstOracle(t, "teleport", got, overlapOracle(w), true)
		w.Aircraft[1100].X = 1100 * 50
	}
}

// TestTableBuildAfterWorldGrowth grows the world between builds so the
// segment count lands between the length and the capacity of the
// builder's segment list (N 1024 -> 1280 -> 1536); every build must
// succeed and match the oracle.
func TestTableBuildAfterWorldGrowth(t *testing.T) {
	for _, idx := range []broadphase.Index{broadphase.NewSweep(), broadphase.NewGrid()} {
		for _, n := range []int{1024, 1280, 1536} {
			w := lineWorld(n, 50)
			checkAgainstOracle(t, fmt.Sprintf("%s n=%d", idx.Name(), n), build(idx, w, nil), overlapOracle(w), idx.Name() == broadphase.SweepName)
		}
	}
}
