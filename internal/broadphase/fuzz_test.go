package broadphase_test

import (
	"testing"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/parexec"
	"repro/internal/rng"
)

// Fuzz world bounds: large enough for several repair blocks and table
// segments, small enough that the O(N²) oracle stays fast.
const (
	fuzzMaxN   = 1600
	fuzzMaxOps = 16
)

// FuzzSweepDifferential drives a persistent sweep and a persistent grid
// through adversarial build sequences and checks, after every step,
// that the repaired sweep's table equals a freshly sorted sweep's and
// that both tables contain the brute envelope-overlap oracle (the
// sweep's exactly). The world starts as random traffic (layout even)
// or as a barely moving line of aircraft 50 nm apart (layout odd); ops
// is a program of one-byte opcodes with byte arguments:
//
//	0 advance one period of motion, with field re-entry
//	1 teleport aircraft a (2 bytes) to x (2 bytes, across the field)
//	2 grow the world by 1+k aircraft (1 byte)
//	3 shrink the world by 1+k aircraft (1 byte)
//	4 copy aircraft a's x key onto aircraft b (2 + 2 bytes)
//	5 park aircraft a (2 bytes) straddling the torus seam
//	6 turn aircraft a's heading (2 bytes) by 90°
//	7 teleport every aircraft
//
// Odd-numbered steps build on a pool of three workers, even ones
// serially, so the differential also crosses worker counts. The seed
// corpus in testdata holds the two run-boundary and segment-growth
// cases that TestRepairSplitsRunsOnSuffixMinimum and
// TestTableBuildAfterWorldGrowth pin directly.
func FuzzSweepDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(300), []byte{0, 0, 1, 0, 7, 255, 255, 0, 2, 40, 3, 90, 5, 0, 3, 4, 0, 1, 0, 2, 6, 0, 9, 7, 0})
	f.Fuzz(func(t *testing.T, seed uint64, layout uint8, n0 uint16, ops []byte) {
		r := rng.New(seed)
		n := 1 + int(n0)%fuzzMaxN
		var w *airspace.World
		if layout%2 == 0 {
			w = airspace.NewWorld(n, r.Split())
		} else {
			w = lineWorld(n, 50)
		}
		pool := parexec.NewPool(3)
		sweep, grid := broadphase.NewSweep(), broadphase.NewGrid()
		check := func(step int) {
			t.Helper()
			p := pool
			if step%2 == 0 {
				p = nil
			}
			oracle := overlapOracle(w)
			got := build(sweep, w, p)
			if msg := diffTables(build(broadphase.NewSweep(), w, nil), got); msg != "" {
				t.Fatalf("step %d (n=%d): repaired sweep diverges from a fresh sort: %s", step, w.N(), msg)
			}
			checkAgainstOracle(t, "sweep", got, oracle, true)
			checkAgainstOracle(t, "grid", build(grid, w, p), oracle, false)
		}
		check(0)
		arg := func(k int) int { // little-endian argument bytes, zero past the end
			v := 0
			for b := k - 1; b >= 0; b-- {
				v <<= 8
				if len(ops) > b {
					v |= int(ops[b])
				}
			}
			if len(ops) > k {
				ops = ops[k:]
			} else {
				ops = nil
			}
			return v
		}
		for step := 1; len(ops) > 0 && step <= fuzzMaxOps; step++ {
			op := ops[0] % 8
			ops = ops[1:]
			switch op {
			case 0:
				for i := range w.Aircraft {
					a := &w.Aircraft[i]
					a.X += a.DX
					a.Y += a.DY
					airspace.Wrap(a)
				}
			case 1:
				a := &w.Aircraft[arg(2)%w.N()]
				a.X = float64(arg(2))/65535*2*airspace.FieldHalf - airspace.FieldHalf
			case 2:
				add := min(1+arg(1), fuzzMaxN-w.N())
				extra := airspace.NewWorld(add, r.Split())
				for i := range extra.Aircraft {
					extra.Aircraft[i].ID = int32(w.N())
					w.Aircraft = append(w.Aircraft, extra.Aircraft[i])
				}
			case 3:
				w.Aircraft = w.Aircraft[:max(1, w.N()-1-arg(1))]
			case 4:
				a, b := arg(2)%w.N(), arg(2)%w.N()
				w.Aircraft[b].X = w.Aircraft[a].X
			case 5:
				a := &w.Aircraft[arg(2)%w.N()]
				a.X = (airspace.FieldHalf - r.Range(0, 1)) * r.Sign()
				a.Y = (airspace.FieldHalf - r.Range(0, 1)) * r.Sign()
			case 6:
				a := &w.Aircraft[arg(2)%w.N()]
				a.DX, a.DY = -a.DY, a.DX
			case 7:
				for i := range w.Aircraft {
					a := &w.Aircraft[i]
					a.X = r.Range(-airspace.FieldHalf, airspace.FieldHalf)
					a.Y = r.Range(-airspace.FieldHalf, airspace.FieldHalf)
				}
			}
			check(step)
		}
	})
}
