// Package conformance is the differential-testing oracle of the
// reproduction: it runs the same scenario through every platform
// executor, pair source and worker count, fingerprints the full world
// trajectory plus the deadline record, and exposes the invariance
// relations the repository promises:
//
//   - Worker counts never change anything: for a fixed platform and
//     pair source, the full fingerprint (worlds, modeled times,
//     deadline misses, skips) is byte-identical at any worker count.
//   - Pair sources are exact supersets: for a fixed platform, every
//     pair source (including none) produces the identical world
//     trajectory — conflicts, resolutions, headings. Modeled times may
//     differ (pruning changes op counts), so only the world hash is
//     compared across sources.
//   - Within a resolution discipline, platforms agree on the world
//     trajectory: the snapshot group (CUDA devices, the multicore
//     Xeon, the wide-vector machines) resolves against a frozen copy
//     of the period's world, the sequential group (STARAN, ClearSpeed)
//     implements the paper's in-place reference scan. The two
//     disciplines legitimately differ on mutually conflicting pairs
//     (see internal/platform's cross-platform tests), so fingerprints
//     are compared within each group, never across.
//
// Every future optimization PR inherits this oracle: a change that
// breaks any equality above fails conformance before it lands.
package conformance

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/airspace"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sched"
)

// Lane is one execution configuration orthogonal to the workload:
// broad-phase index and host worker count.
type Lane struct {
	// PairSource is a broadphase index name, or "" for the paper's
	// all-pairs kernels.
	PairSource string
	// Workers pins the host worker pool (0 = process default).
	Workers int
}

func (l Lane) String() string {
	src := l.PairSource
	if src == "" {
		src = "allpairs"
	}
	return fmt.Sprintf("%s/w%d", src, l.Workers)
}

// RunSpec names one conformance run.
type RunSpec struct {
	// Platform is the machine registry key.
	Platform string
	// Scenario is the workload spec string ("" = uniform).
	Scenario string
	// N is the aircraft count.
	N int
	// Periods is how many half-second periods to run; multiples of
	// sched.PeriodsPerMajorCycle exercise whole major cycles.
	Periods int
	// Seed fixes flight setup, radar noise and MIMD jitter.
	Seed uint64
	// Lane is the execution configuration.
	Lane Lane
}

// Fingerprint condenses one run into comparable identities.
type Fingerprint struct {
	// World hashes the complete per-period world trajectory: positions,
	// velocities, altitudes, correlation state, conflict flags, partner
	// IDs and trial paths after every period. Two runs with equal World
	// produced identical conflict sets and identical resolutions at
	// every step.
	World string
	// Full extends World with the modeled task durations and the
	// deadline record; equal Full means the runs were indistinguishable
	// end to end, timing included.
	Full string
	// Conflicts is the number of aircraft holding a conflict flag after
	// the final period, Misses/Skips the deadline record — pulled out
	// of the hashes for readable failure reports.
	Conflicts int
	Misses    int
	Skips     int
}

// Run executes the spec and fingerprints the trajectory.
func Run(rs RunSpec) Fingerprint {
	p := platform.MustNew(rs.Platform, rs.Seed)
	if w, ok := p.(platform.Workered); ok && rs.Lane.Workers > 0 {
		w.SetWorkers(rs.Lane.Workers)
	}
	sys := core.NewSystem(p, core.Config{
		N:          rs.N,
		Seed:       rs.Seed,
		Scenario:   rs.Scenario,
		PairSource: rs.Lane.PairSource,
	})
	worldH := sha256.New()
	buf := make([]byte, 0, rs.N*aircraftBytes)
	for i := 0; i < rs.Periods; i++ {
		sys.RunPeriod()
		buf = appendWorld(buf[:0], sys.World)
		worldH.Write(buf)
	}
	worldSum := worldH.Sum(nil)

	st := sys.Stats()
	fullH := sha256.New()
	fullH.Write(worldSum)
	var tail [8 * 8]byte
	stats := []uint64{
		uint64(st.Task(core.Task1).Total), uint64(st.Task(core.Task1).Max),
		uint64(st.Task(core.Task23).Total), uint64(st.Task(core.Task23).Max),
		uint64(st.PeriodMisses), uint64(st.TotalMisses),
		uint64(st.TotalSkips), uint64(st.Periods),
	}
	for i, v := range stats {
		binary.LittleEndian.PutUint64(tail[8*i:], v)
	}
	fullH.Write(tail[:])

	conflicts := 0
	for i := range sys.World.Aircraft {
		if sys.World.Aircraft[i].Col {
			conflicts++
		}
	}
	return Fingerprint{
		World:     hex.EncodeToString(worldSum),
		Full:      hex.EncodeToString(fullH.Sum(nil)),
		Conflicts: conflicts,
		Misses:    st.PeriodMisses,
		Skips:     st.TotalSkips,
	}
}

// aircraftBytes is the encoded size of one aircraft record: 12 fields,
// 8 bytes each.
const aircraftBytes = 12 * 8

// appendWorld encodes every semantically committed aircraft field, in
// declaration order, little endian, floats by IEEE bits.
//
// ExpX/ExpY are deliberately excluded: the dead-reckoned expectation
// is per-period scratch that every Track implementation recomputes
// from (X, Y, DX, DY) at period start, and platforms working from
// structure-of-arrays snapshots legitimately leave different residues
// in the array-of-structs record without any semantic divergence.
func appendWorld(buf []byte, w *airspace.World) []byte {
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		var rec [aircraftBytes]byte
		vals := [...]uint64{
			uint64(uint32(a.ID)),
			math.Float64bits(a.X), math.Float64bits(a.Y),
			math.Float64bits(a.DX), math.Float64bits(a.DY),
			math.Float64bits(a.Alt),
			math.Float64bits(a.BatX), math.Float64bits(a.BatY),
			boolBits(a.Col),
			math.Float64bits(a.TimeTill),
			uint64(uint32(a.ColWith)),
			uint64(uint8(a.RMatch)),
		}
		for j, v := range vals {
			binary.LittleEndian.PutUint64(rec[8*j:], v)
		}
		buf = append(buf, rec[:]...)
	}
	return buf
}

func boolBits(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// SnapshotPlatforms lists the registry keys of the snapshot resolution
// discipline: Tasks 2-3 detect and resolve against a frozen copy of
// the period's world (data-parallel semantics).
func SnapshotPlatforms() []string {
	return []string{
		platform.GeForce9800GT, platform.GTX880M, platform.TitanXPascal,
		platform.Xeon16, platform.XeonPhi, platform.AVX2,
	}
}

// SequentialPlatforms lists the registry keys of the sequential
// resolution discipline: the associative processors implement the
// paper's in-place reference scan.
func SequentialPlatforms() []string {
	return []string{platform.STARAN, platform.ClearSpeed}
}

// AllPlatforms is every registry key, snapshot group first.
func AllPlatforms() []string {
	return append(SnapshotPlatforms(), SequentialPlatforms()...)
}

// MajorCycles converts major cycles to periods for RunSpec.Periods.
func MajorCycles(k int) int { return k * sched.PeriodsPerMajorCycle }
