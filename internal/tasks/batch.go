// The executable fused Task 2+3 path: the broad-phase candidate table
// feeding the branch-free batched pair kernel, host-parallel on the
// parexec engine. tasks.go holds the serial all-pairs specifications
// it reproduces bit for bit, at every worker count and for every index.
//
// The kernel has one entry point, Scanner, which owns its scratch. Two
// disciplines run on it. The Detector below is the specification's
// in-place discipline (DetectResolve). The CUDA, multicore and
// wide-vector executors run the snapshot discipline
// (DetectResolveSnapshot) through Scanner.Scan and
// Scanner.ResolveSnapshot, keeping their own launch or phase structure
// and charging their cost models from the counts a scan returns.
//
// Candidates come from the broadphase.PairTable the index builds once
// per invocation; with no index (or the brute oracle, whose table is
// nil) every track's candidates are the identity list — every
// aircraft, in index order. Reuse is exact: a track's candidate set
// depends only on positions and speeds, heading commits preserve
// speed, and the index is never rebuilt within an invocation, so every
// rotation probe and every dirty-replay rescan reads the same row.
//
// The pair loop is scanTableBatch: a compaction pass applies the
// self-skip and altitude filters, then the survivors are evaluated in
// unrolled blocks of 8 with branch-free min/max time-band intersection.
// The equivalence argument is spelled out at the kernel. Every value
// the kernel reads comes from an airspace.Columns snapshot filled at
// invocation start and updated in lockstep with every heading commit,
// so each comparison evaluates on exactly the float64 the record-based
// specification reads. The self-skip compares indices where the
// specification compares IDs; these are equivalent by the ID==index
// invariant (SetupFlight assigns ID = index and no task reassigns it).
//
// Parallelism changes the wall clock only. The construction is phased:
//
//   - Detect: the scan reads only positions, velocities and altitudes,
//     while Detect mutates only the conflict fields. Every per-track
//     scan is independent, so the scans run concurrently and a serial
//     replay applies ResetConflict/MarkConflict in index order.
//
//   - DetectResolve: the only cross-track dependency is a committed
//     heading change by an earlier-index aircraft. The parallel phase
//     scans every track against the pre-resolution velocity snapshot;
//     the serial replay keeps the list of aircraft whose heading was
//     committed ("dirty") and rescans a track only when a dirty
//     aircraft could influence it — decided by the broadphase
//     reach-envelope test, which is exact for any heading at a given
//     speed (see package broadphase), and rotation preserves speed. A
//     pair outside each other's envelopes contributes no conflict with
//     tmin below CriticalTime under the old or the new heading, and
//     the scan's strict-< fold ignores such pairs entirely, so the
//     precomputed result is already the one the specification
//     computes. With one worker the specification's in-place order
//     runs directly.
//
// Every scan — scan phase, probes, rescans — is one kernel call over
// the track's full candidate row, so the batch counter is as
// worker-invariant as the results themselves.
package tasks

import (
	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/geom"
	"repro/internal/parexec"
)

// scanGrain is the work-queue grain of the parallel scan phase: small
// index ranges keep every worker busy despite skewed candidate counts.
const scanGrain = 32

// rotationSchedule is RotationSchedule computed once: the schedule is
// probed for every conflicted aircraft and must not allocate per use.
var rotationSchedule = RotationSchedule()

// ScanResult is one kernel scan's outcome: the earliest conflict start
// below SafeTime (SafeTime if none), the partner that achieved it
// (first wins on ties; NoConflict if none), the pair checks performed
// — candidates that survive the self-skip and the altitude band — and
// the candidates visited, which is the row's length.
type ScanResult struct {
	TMin    float64
	With    int32
	Checks  int32
	Visited int32
}

// batches is the number of kernelBatch-wide iterations (tail included)
// a scan with this many pair checks executes.
//
//atm:inline
func batches(checks int32) int64 {
	return int64((checks + kernelBatch - 1) / kernelBatch)
}

// workerBuf is one worker's index buffer (the kernel's compaction
// buffer, Task 1's candidate lists), padded so neighbouring workers'
// slice headers don't share a cache line.
type workerBuf struct {
	cand []int32
	_    [40]byte
}

// Scanner owns the batched kernel's scratch: the identity candidate
// list that stands in for a nil table (all pairs, every aircraft in
// index order) and one compaction buffer per host worker. Size it with
// Prepare before a pass; Scan and ResolveSnapshot may then run
// concurrently as long as no two concurrent calls share a worker
// index. A Scanner kept across passes allocates nothing in steady
// state.
type Scanner struct {
	all  []int32
	keep []workerBuf
}

// Prepare sizes the scratch for a pass over n aircraft scanning tab
// (nil: all pairs) on workers host workers. Every compaction buffer
// holds the longest row, so the kernel never grows one, whichever
// worker claims whichever track.
func (s *Scanner) Prepare(n, workers int, tab *broadphase.PairTable) {
	if tab == nil && len(s.all) != n {
		if cap(s.all) < n {
			s.all = make([]int32, n)
		}
		s.all = s.all[:n]
		for i := range s.all {
			s.all[i] = int32(i)
		}
	}
	if len(s.keep) < workers {
		s.keep = append(s.keep, make([]workerBuf, workers-len(s.keep))...)
	}
	longest := n
	if tab != nil {
		longest = 0
		for i := 0; i < n; i++ {
			longest = max(longest, int(tab.Start[i+1]-tab.Start[i]))
		}
	}
	for k := range s.keep {
		if cap(s.keep[k].cand) < longest {
			s.keep[k].cand = make([]int32, 0, longest+longest/8)
		}
	}
}

// Scan runs the kernel once for the track at index i of c, probing
// velocity (vx, vy) against its row of tab, on worker's compaction
// buffer.
//
//atm:noalloc
//atm:noescape
func (s *Scanner) Scan(c *airspace.Columns, tab *broadphase.PairTable, worker, i int, vx, vy float64) ScanResult {
	row := s.all
	if tab != nil {
		row = tab.Candidates(i)
	}
	r := ScanResult{TMin: airspace.SafeTime, With: airspace.NoConflict, Visited: int32(len(row))}
	buf := &s.keep[worker]
	buf.cand = scanTableBatch(c, buf.cand, i, c.X[i], c.Y[i], vx, vy, c.Alt[i], row, &r)
	return r
}

// Resolution is one snapshot resolve's outcome: the first
// conflict-free course of the rotation schedule (valid when Resolved),
// the rotations probed — one kernel scan each — and the pair checks
// and candidates visited over all of them.
type Resolution struct {
	DX, DY    float64
	Resolved  bool
	Rotations int
	Checks    int
	Visited   int
}

// ResolveSnapshot runs Task 3 for the conflicted track at index i,
// whose record is a, under the snapshot discipline: it probes the
// rotation schedule around the snapshot course (c.DX[i], c.DY[i])
// against the unchanged snapshot c, records each probe's heading in
// a.BatX/BatY and each failed probe's conflict on a alone, and
// returns the first conflict-free course without
// committing it. It writes only a, so concurrent calls for distinct
// tracks on distinct workers are race-free.
//
//atm:noalloc
func (s *Scanner) ResolveSnapshot(c *airspace.Columns, tab *broadphase.PairTable, worker, i int, a *airspace.Aircraft) Resolution {
	var res Resolution
	base := geom.Vec2{X: c.DX[i], Y: c.DY[i]}
	for _, deg := range rotationSchedule {
		res.Rotations++
		v := base.Rotate(deg)
		a.BatX, a.BatY = v.X, v.Y
		r := s.Scan(c, tab, worker, i, v.X, v.Y)
		res.Checks += int(r.Checks)
		res.Visited += int(r.Visited)
		if !(r.TMin < airspace.CriticalTime) {
			res.DX, res.DY, res.Resolved = v.X, v.Y, true
			return res
		}
		markTrack(a, r.With, r.TMin)
	}
	return res
}

// Detector runs the fused Task 2+3 pass (and Task 2 alone) through
// one index on one engine pool, and owns every piece of scratch a pass
// needs: the column snapshot, the kernel's Scanner, per-track results
// and envelopes, and the dirty list. Build it once and keep it across
// passes — the index's persistent state (the sweep's sorted order) and
// the scratch then carry over, and a steady-state pass allocates
// nothing. A Detector is not safe for concurrent use.
type Detector struct {
	idx     broadphase.Index
	pool    *parexec.Pool
	cols    airspace.Columns
	scan    Scanner
	res     []ScanResult
	reach   []float64
	dirty   []int32
	job     tableScanJob
	batches int64
}

// NewDetector returns a detector scanning the candidate table of idx
// (nil: every aircraft, the paper's all-pairs kernel) on pool (nil:
// the process default at each pass).
func NewDetector(idx broadphase.Index, pool *parexec.Pool) *Detector {
	return &Detector{idx: idx, pool: pool}
}

// TakeBatches returns the batched-kernel iterations executed since the
// last call and resets the count. Like every counter here it is
// identical at every worker count.
func (d *Detector) TakeBatches() int64 {
	b := d.batches
	d.batches = 0
	return b
}

// kernelBatch is the batched kernel's block width: 8 candidate pairs
// per unrolled iteration, the natural SIMD shape for float64 lanes.
const kernelBatch = 8

// scanTableBatch is the branch-free batched form of the fused Task 2+3
// pair kernel. It folds the candidates cand of the track at index ti —
// at (tx, ty, talt), probing velocity (vx, vy) — into r, using keep as
// the compaction buffer (returned so the caller can retain its growth).
//
// Stage 1 compacts the candidates that survive the self-skip and the
// altitude band (the ~95% reject) into keep; the survivor count is the
// pair-check tally, exactly as the scalar kernel counts before its
// window test. Stage 2 consumes survivors in blocks of kernelBatch SoA
// lanes with hoisted track scalars and no branches in the window math,
// then a scalar tail finishes the remainder in the same arithmetic.
//
// Equivalence to PairConflictAt + the scalar fold, case by case: with
// d = trial - track and dv relative velocity per axis, the unconditional
// quotients t1 = (-sep-d)/dv, t2 = (sep-d)/dv reproduce
// geom.AxisConflictWindow exactly. For dv != 0 they are its finite
// window (min/max replaces the swap). For dv == 0 with |d| < sep the
// numerators straddle zero, so t1, t2 = ∓Inf — the unbounded window.
// For |d| > sep both numerators share a sign, the window collapses to
// [±Inf, ±Inf], and the [0, HorizonPeriods] clip empties it. For
// |d| == sep one numerator is zero, 0/0 = NaN poisons the builtin
// min/max chain (they propagate NaN like math.Min/math.Max), and the
// final tmin < tmax predicate is false — the scalar path's empty
// window. The fold order max(max(xLo, yLo), 0), min(min(xHi, yHi), H)
// is geom.Interval.Intersect's own composition on the same values, so
// every stored tmin is bit-identical to the scalar kernel's, and the
// in-order strict-< fold preserves its first-wins tie-break.
//
// Bounds checks: the length guard over the hoisted column locals
// teaches the prove pass that every column covers [0, n) (fillColumns'
// idiom), candidate IDs are range-checked with a single never-taken
// uint compare per lane (an out-of-range ID gets the empty window, the
// same verdict an impossible candidate would earn), and blocks are
// consumed by reslicing rest so the constant block length is visible
// to the prover. The gate holds the whole kernel bounds-check-free.
//
//atm:noalloc
//atm:noescape
//atm:nobce
func scanTableBatch(c *airspace.Columns, keep []int32, ti int, tx, ty, vx, vy, talt float64, cand []int32, r *ScanResult) []int32 {
	keep = keep[:0]
	xs, ys, dxs, dys, alts := c.X, c.Y, c.DX, c.DY, c.Alt
	n := len(xs)
	if len(ys) < n || len(dxs) < n || len(dys) < n || len(alts) < n {
		return keep // columns are always filled to equal length
	}
	for _, p := range cand {
		q := int(p)
		if uint(q) < uint(n) && q != ti && AltOverlapAt(talt, alts[q]) {
			keep = append(keep, p)
		}
	}
	r.Checks += int32(len(keep))
	if len(keep) == 0 {
		return keep
	}
	const sep = airspace.SepTotal
	var blo, bhi [kernelBatch]float64
	rest := keep
	for len(rest) >= kernelBatch {
		blk := rest[:kernelBatch]
		for l := 0; l < kernelBatch; l++ {
			q := int(blk[l])
			if uint(q) >= uint(n) {
				blo[l], bhi[l] = 0, 0 // empty window; unreachable for real candidates
				continue
			}
			dx := xs[q] - tx
			dvx := dxs[q] - vx
			x1 := (-sep - dx) / dvx
			x2 := (sep - dx) / dvx
			dy := ys[q] - ty
			dvy := dys[q] - vy
			y1 := (-sep - dy) / dvy
			y2 := (sep - dy) / dvy
			blo[l] = max(max(min(x1, x2), min(y1, y2)), 0)
			bhi[l] = min(min(max(x1, x2), max(y1, y2)), airspace.HorizonPeriods)
		}
		for l := 0; l < kernelBatch; l++ {
			if blo[l] < bhi[l] && blo[l] < r.TMin {
				r.TMin = blo[l]
				r.With = blk[l]
			}
		}
		rest = rest[kernelBatch:]
	}
	for _, p := range rest {
		q := int(p)
		if uint(q) >= uint(n) {
			continue
		}
		dx := xs[q] - tx
		dvx := dxs[q] - vx
		x1 := (-sep - dx) / dvx
		x2 := (sep - dx) / dvx
		dy := ys[q] - ty
		dvy := dys[q] - vy
		y1 := (-sep - dy) / dvy
		y2 := (sep - dy) / dvy
		tlo := max(max(min(x1, x2), min(y1, y2)), 0)
		thi := min(min(max(x1, x2), max(y1, y2)), airspace.HorizonPeriods)
		if tlo < thi && tlo < r.TMin {
			r.TMin = tlo
			r.With = p
		}
	}
	return keep
}

// prepare refreshes the column snapshot, builds the index's table and
// sizes the scratch for w on p. A nil table means all pairs.
func (d *Detector) prepare(w *airspace.World, p *parexec.Pool) *broadphase.PairTable {
	n := w.N()
	d.cols.FillFrom(w)
	var tab *broadphase.PairTable
	if d.idx != nil {
		tab = d.idx.Build(&d.cols, p)
	}
	if cap(d.res) < n {
		d.res = make([]ScanResult, n)
		d.reach = make([]float64, n)
	}
	d.res, d.reach = d.res[:n], d.reach[:n]
	d.scan.Prepare(n, p.Workers(), tab)
	return tab
}

// tableScanJob is the parallel scan phase's persistent body: one chunk
// of tracks, each scanned once against the pre-resolution snapshot.
// Held in the Detector so RunBody dispatch allocates nothing.
type tableScanJob struct {
	d         *Detector
	tab       *broadphase.PairTable
	wantReach bool
}

//atm:noalloc
func (j *tableScanJob) Chunk(worker, lo, hi int) {
	d := j.d
	c := &d.cols
	for i := lo; i < hi; i++ {
		if j.wantReach {
			d.reach[i] = broadphase.ReachAt(c.DX[i], c.DY[i])
		}
		d.res[i] = d.scan.Scan(c, j.tab, worker, i, c.DX[i], c.DY[i])
	}
}

// Detect runs Task 2 only: it marks Col/TimeTill/ColWith on each
// aircraft with a critical conflict, exactly as the specification
// Detect does.
//
//atm:ordered-merge
func (d *Detector) Detect(w *airspace.World) DetectStats {
	var st DetectStats
	p := parexec.Resolve(d.pool)
	tab := d.prepare(w, p)
	d.job = tableScanJob{d: d, tab: tab}
	p.RunBody(w.N(), scanGrain, &d.job)
	for i := range w.Aircraft {
		track := &w.Aircraft[i]
		track.ResetConflict()
		r := d.res[i]
		st.PairChecks += int(r.Checks)
		d.batches += batches(r.Checks)
		if r.TMin < airspace.CriticalTime {
			st.Conflicts++
			MarkConflict(w, track, r.With, r.TMin)
		}
	}
	return st
}

// DetectResolve runs the fused Tasks 2 and 3 — the paper's
// CheckCollisionPath — with the specification DetectResolve's results:
// detect each track's earliest critical conflict and probe the rotation
// schedule until a conflict-free heading is found and committed.
//
//atm:ordered-merge
func (d *Detector) DetectResolve(w *airspace.World) DetectStats {
	var st DetectStats
	p := parexec.Resolve(d.pool)
	tab := d.prepare(w, p)
	// With one worker the specification's in-place order runs directly:
	// every track is scanned when the replay reaches it.
	inPlace := p.Workers() == 1
	if !inPlace {
		d.job = tableScanJob{d: d, tab: tab, wantReach: true}
		p.RunBody(w.N(), scanGrain, &d.job)
	}

	dirty := d.dirty[:0]
	for i := range w.Aircraft {
		track := &w.Aircraft[i]
		r := d.res[i]
		if inPlace || d.dirtyInteracts(i, dirty) {
			r = d.scan.Scan(&d.cols, tab, 0, i, track.DX, track.DY)
		}
		track.ResetConflict()
		st.PairChecks += int(r.Checks)
		d.batches += batches(r.Checks)
		if !(r.TMin < airspace.CriticalTime) {
			continue
		}
		st.Conflicts++
		MarkConflict(w, track, r.With, r.TMin)
		if d.probe(w, tab, track, &st) {
			dirty = append(dirty, int32(i))
		}
	}
	d.dirty = dirty[:0]
	return st
}

// probe runs Task 3 for a conflicted track: it tries the rotation
// schedule in order and commits the first conflict-free heading to the
// record and the snapshot, reporting whether it found one. Like every
// serial-replay scan it runs on worker 0's buffer.
//
//atm:noalloc
func (d *Detector) probe(w *airspace.World, tab *broadphase.PairTable, track *airspace.Aircraft, st *DetectStats) bool {
	ti := int(track.ID)
	base := geom.Vec2{X: track.DX, Y: track.DY}
	for _, deg := range rotationSchedule {
		st.Rotations++
		v := base.Rotate(deg)
		track.BatX, track.BatY = v.X, v.Y
		pr := d.scan.Scan(&d.cols, tab, 0, ti, v.X, v.Y)
		st.PairChecks += int(pr.Checks)
		d.batches += batches(pr.Checks)
		if !(pr.TMin < airspace.CriticalTime) {
			track.DX, track.DY = v.X, v.Y
			d.cols.SetVel(ti, v.X, v.Y)
			track.ResetConflict()
			st.Resolved++
			return true
		}
		MarkConflict(w, track, pr.With, pr.TMin)
	}
	st.Unresolved++
	return false
}

// dirtyInteracts reports whether any committed heading change could
// alter track i's precomputed scan: a dirty aircraft matters only if it
// is within the vertical band and the two reach envelopes overlap on
// both axes — outside that, no heading at its speed can produce a
// conflict starting before CriticalTime (the broadphase exactness
// argument), and such pairs never touch the scan's strict-< fold.
//
//atm:noalloc
//atm:noescape
func (d *Detector) dirtyInteracts(i int, dirty []int32) bool {
	c := &d.cols
	for _, j := range dirty {
		if !AltOverlapAt(c.Alt[i], c.Alt[j]) {
			continue
		}
		reach := d.reach[i] + d.reach[j]
		dx := c.X[i] - c.X[j]
		if dx < 0 {
			dx = -dx
		}
		if dx > reach {
			continue
		}
		dy := c.Y[i] - c.Y[j]
		if dy < 0 {
			dy = -dy
		}
		if dy <= reach {
			return true
		}
	}
	return false
}
