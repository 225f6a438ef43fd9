// Package broadphase prunes the O(n²) pair enumeration at the heart of
// the collision-detection tasks (Algorithm 2, Equations 1-6). Every
// platform's Tasks 2-3 scan compares each track aircraft against every
// other aircraft; an Index replaces that full scan with a candidate
// set that is provably a superset of the pairs that can influence the
// result, so detection output is bit-for-bit identical while the number
// of pair evaluations drops from O(n²) toward O(n).
//
// # Exactness argument
//
// The per-track scan (tasks.scanTableBatch and its platform ports)
// initializes its running minimum to airspace.SafeTime and only records
// conflicts whose window start tmin is strictly below it; since
// SafeTime equals the criticality threshold airspace.CriticalTime, a
// pair whose earliest conflict lies at or beyond CriticalTime periods
// can never change the scan's earliest time, its conflict partner, or
// the critical verdict. A conflict with tmin < CriticalTime requires both
// axis separations to be within airspace.SepTotal at some instant
// t ∈ [0, CriticalTime); at that instant each aircraft sits inside its
// own reach envelope — the axis-aligned box of every position the
// aircraft can occupy within CriticalTime periods at its current
// *speed*, under any heading, expanded by half the separation bound
// (ReachAt). Two aircraft can therefore only matter to each other if
// their reach envelopes overlap on both axes.
//
// The envelope deliberately uses the speed ball rather than the
// committed course: collision resolution probes headings rotated up to
// ±30° and the sequential reference commits a successful rotation in
// place, mid-run. Rotation preserves speed, so a speed-ball envelope
// built once per Detect/DetectResolve invocation stays valid for every
// probed and every committed heading — no index maintenance within an
// invocation, no ordering sensitivity. (The paper's full 20-minute look-ahead horizon
// would be useless as a pruning bound: at 600 knots an aircraft crosses
// 200 nm in 20 minutes, most of the 256 nm field; the critical window
// is the bound that actually prunes, and it is the exact one.)
//
// An Index materializes every track's candidate set for one Task 2+3
// invocation as a CSR PairTable. Rows are in ascending aircraft-index
// order so that the scan's first-wins tie-break on equal conflict times
// matches the full scan exactly. Rows may include the track aircraft
// itself; callers already skip it.
package broadphase

import (
	"fmt"
	"math"

	"repro/internal/airspace"
	"repro/internal/parexec"
)

// PruneHorizon is the look-ahead, in periods, that bounds which pairs
// can influence collision detection: conflicts first entering the
// separation band at or beyond this time never alter the scan result
// (see the package comment).
const PruneHorizon = airspace.CriticalTime

// slack widens every envelope by a hair so that exact floating-point
// boundary cases (a window starting exactly where an envelope ends)
// land inside rather than outside. Pruning only ever errs toward more
// candidates.
const slack = 1e-9

// Index yields, once per Task 2+3 invocation, the candidate set of
// every track: the aircraft it could possibly be in critical conflict
// with.
//
// Contract:
//   - Build is called once per invocation with the column snapshot of
//     the world in its post-Task-1 (committed, wrapped) state. Row i of
//     the returned table must be a superset of every aircraft whose
//     conflict with track i can start before PruneHorizon under any
//     heading of the track's current speed, in ascending index order.
//     A nil table means every aircraft is a candidate of every track
//     (the all-pairs oracle). The table is read-only and valid until
//     the next Build; rotation probes and dirty-replay rescans all
//     serve from it, since rotations preserve speed.
//   - p runs Build's parallel phases (nil keeps them serial). The
//     table is byte-identical at every worker count.
//   - Build and TakeStats are sequential: one caller at a time.
type Index interface {
	// Name returns the registry name of the index.
	Name() string
	// Build indexes the snapshot and returns its candidate table.
	Build(c *airspace.Columns, p *parexec.Pool) *PairTable
	// TakeStats drains the counters accumulated since the last call.
	TakeStats() Stats
}

// Stats counts an index's work since the last drain. Every counter is
// a pure function of the built snapshots, so the drained values are
// identical at every worker count.
type Stats struct {
	// Queries is the number of tracks indexed (N per Build) and
	// Candidates the number of table entries they received (N² for the
	// implicit all-pairs table).
	Queries, Candidates int64
	// Updates counts builds that repaired the previous sorted order in
	// place; Rebuilds counts builds that ran a full sort (the first
	// build, a world-size change, or a budget-exceeded fallback). Moved
	// is the total insertion shifts spent by repairs; Resorted is the
	// number of elements found out of place. Sweep only.
	Updates, Rebuilds, Moved, Resorted int64
	// Segments counts table-build segments walked.
	Segments int64
}

// ReachAt returns the per-axis half-width of an aircraft's
// critical-window envelope from its velocity: the farthest it can
// travel along one axis within PruneHorizon at its current speed under
// any heading, plus half the pairwise separation bound (each member of
// a pair contributes half of airspace.SepTotal).
//
//atm:inline
func ReachAt(dx, dy float64) float64 {
	return math.Hypot(dx, dy)*PruneHorizon + airspace.SepTotal/2 + slack
}

// Registry names of the three indexes.
const (
	BruteName = "brute"
	GridName  = "grid"
	SweepName = "sweep"
)

// Names returns the registry names in presentation order (the oracle
// first).
func Names() []string { return []string{BruteName, GridName, SweepName} }

// New constructs the named index with default parameters.
func New(name string) (Index, error) {
	switch name {
	case BruteName:
		return NewBrute(), nil
	case GridName:
		return NewGrid(), nil
	case SweepName:
		return NewSweep(), nil
	}
	return nil, fmt.Errorf("broadphase: unknown pair source %q (known: %v)", name, Names())
}

// MustNew is New that panics on error, for tables of known-good names.
func MustNew(name string) Index {
	idx, err := New(name)
	if err != nil {
		panic(err)
	}
	return idx
}

// Brute is the all-pairs oracle: every aircraft is a candidate for
// every track. Build returns the nil table, so consumers run their
// unpruned scan — exactly the paper's kernel — while still charging an
// installed index; no O(N²) table is ever materialized.
type Brute struct {
	stats Stats
}

// NewBrute returns the all-pairs index.
func NewBrute() *Brute { return &Brute{} }

// Name returns "brute".
func (b *Brute) Name() string { return BruteName }

// Build returns nil: every aircraft is a candidate of every track.
func (b *Brute) Build(c *airspace.Columns, _ *parexec.Pool) *PairTable {
	n := int64(c.N())
	b.stats.Queries += n
	b.stats.Candidates += n * n
	return nil
}

// TakeStats drains the query counters.
func (b *Brute) TakeStats() Stats {
	st := b.stats
	b.stats = Stats{}
	return st
}
