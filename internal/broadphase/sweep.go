package broadphase

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/airspace"
	"repro/internal/parexec"
)

// repairChunk is the block size of the parallel insertion repair: the
// key minima/maxima of the blocks are computed in parallel, and a
// serial prefix/suffix pass marks the block boundaries no element can
// cross.
const repairChunk = 512

// Sweep is sort-based sweep-and-prune on the per-axis reach intervals
// (Marzolla & D'Angelo's sort-based matching, specialized to per-track
// queries). Build orders the aircraft by the low edge of their x-axis
// envelope; a track's row is the run of aircraft whose x interval can
// overlap the track's, found by binary search and filtered by the
// actual x and y interval tests. The window [lo − maxW, hi] is sound
// because no stored interval is wider than maxW: anything starting
// earlier has necessarily ended before the query interval begins.
//
// The sorted order persists across builds and is repaired in place
// (temporal coherence). Aircraft move a tiny fraction of the airspace
// between consecutive detection invocations, so the previous order is
// nearly sorted: the repair splits it into independent runs at block
// boundaries no element needs to cross and insertion-sorts the runs in
// parallel, O(N) plus the shifts the motion actually caused. A shift
// budget bounds the pathological case (mass teleports) by falling back
// to the full sort. Rows do not depend on how the order permutes
// aircraft with equal low-x keys: the per-track bitmap emits ascending
// aircraft indices, and window membership depends only on the envelope
// values.
type Sweep struct {
	n        int
	prepared bool
	// order holds aircraft indices sorted by ascending envelope low-x;
	// sortedLo mirrors the low-x values in the same order for binary
	// search, and sortedBox interleaves the remaining edges permuted
	// into sorted order — hi-x, lo-y, hi-y at stride 3 — so the window
	// walk reads one dense sequential stream.
	order     []int32
	sortedLo  []float64
	sortedBox []float64
	// Envelope edges indexed by aircraft index.
	lox, hix, loy, hiy []float64
	// maxW is the widest x envelope in the world, recomputed as a
	// running max by every Build's (already O(N)) envelope fill, so it
	// can never go stale.
	maxW float64

	// sorter is the reusable sort.Interface over order/lox: sort.Slice
	// allocates its closure pair on every call.
	sorter sweepOrder
	// Repair scratch: per-block key extrema, run boundaries, per-run
	// outcomes, and the persistent job bodies a pool dispatches.
	chunkMin, chunkMax []float64
	runs               []int32
	runStats           []runStat
	minmax             minmaxJob
	repair             repairJob

	tb    tableBuilder
	stats Stats
}

// sweepOrder sorts aircraft indices by ascending envelope low-x.
type sweepOrder struct {
	order []int32
	lox   []float64
}

func (o *sweepOrder) Len() int           { return len(o.order) }
func (o *sweepOrder) Less(a, b int) bool { return o.lox[o.order[a]] < o.lox[o.order[b]] }
func (o *sweepOrder) Swap(a, b int)      { o.order[a], o.order[b] = o.order[b], o.order[a] }

// runStat is one repair run's outcome: the shifts it spent, the
// elements it found out of place, and whether it stayed within budget.
type runStat struct {
	shifts   int64
	resorted int64
	ok       bool
}

// NewSweep returns a sweep-and-prune index.
func NewSweep() *Sweep { return &Sweep{} }

// Name returns "sweep".
func (s *Sweep) Name() string { return SweepName }

// TakeStats drains the counters accumulated since the last call.
func (s *Sweep) TakeStats() Stats {
	st := s.stats
	s.stats = Stats{}
	return st
}

// Build computes every aircraft's reach envelope, establishes the
// sorted x order — by run-split repair of the previous order when the
// world size is unchanged, by full sort otherwise — and builds the
// candidate table on p.
func (s *Sweep) Build(c *airspace.Columns, p *parexec.Pool) *PairTable {
	n := c.N()
	reuse := s.prepared && s.n == n && n > 1
	s.n = n
	if cap(s.order) < n {
		s.order = make([]int32, n)
		s.sortedLo = make([]float64, n)
		s.sortedBox = make([]float64, 3*n)
		s.lox = make([]float64, n)
		s.hix = make([]float64, n)
		s.loy = make([]float64, n)
		s.hiy = make([]float64, n)
		// The repair scratch is sized with the arrays, so the first
		// repair after a fresh sort allocates nothing either.
		blocks := (n + repairChunk - 1) / repairChunk
		s.chunkMin = make([]float64, blocks)
		s.chunkMax = make([]float64, blocks)
		s.runs = make([]int32, 0, blocks)
		s.runStats = make([]runStat, blocks)
	}
	s.order = s.order[:n]
	s.sortedLo = s.sortedLo[:n]
	s.sortedBox = s.sortedBox[:3*n]
	s.lox, s.hix = s.lox[:n], s.hix[:n]
	s.loy, s.hiy = s.loy[:n], s.hiy[:n]

	s.maxW = 0
	for i := 0; i < n; i++ {
		r := ReachAt(c.DX[i], c.DY[i])
		s.lox[i], s.hix[i] = c.X[i]-r, c.X[i]+r
		s.loy[i], s.hiy[i] = c.Y[i]-r, c.Y[i]+r
		if 2*r > s.maxW {
			s.maxW = 2 * r
		}
	}

	repaired := reuse && s.repairOrderRuns(p)
	if repaired {
		s.stats.Updates++
	} else {
		if !reuse {
			// Fresh build (first Build, or the world size changed):
			// start from the identity permutation.
			for i := range s.order {
				s.order[i] = int32(i)
			}
		}
		// On a budget-exceeded fallback the partially repaired order is
		// still a valid permutation; sorting it as-is is correct (rows
		// do not depend on how equal keys permute).
		s.sorter.order, s.sorter.lox = s.order, s.lox
		sort.Sort(&s.sorter)
		s.stats.Rebuilds++
	}
	for k, id := range s.order {
		s.sortedLo[k] = s.lox[id]
		s.sortedBox[3*k] = s.hix[id]
		s.sortedBox[3*k+1] = s.loy[id]
		s.sortedBox[3*k+2] = s.hiy[id]
	}
	s.prepared = true

	t, segs := s.tb.build(s, s.order, n, p)
	s.stats.Queries += int64(n)
	s.stats.Candidates += int64(len(t.Cand))
	s.stats.Segments += int64(segs)
	return t
}

// markRow sets the bit of every aircraft whose envelope overlaps
// aircraft i's on both axes. Pure with respect to the built index, so
// the row is independent of which worker computes it.
//
//atm:noalloc
func (s *Sweep) markRow(i int, words []uint64) {
	qloX, qhiX := s.lox[i], s.hix[i]
	qloY, qhiY := s.loy[i], s.hiy[i]
	// The window starts one slack below the widest-envelope bound so a
	// rounding error in an envelope's width can never drop a neighbour
	// whose interval still reaches qloX; the exact interval tests below
	// decide membership.
	start := sort.SearchFloat64s(s.sortedLo, qloX-s.maxW-slack)
	// First sorted low-x above qhiX: where the window ends.
	lo, hi := start, s.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.sortedLo[mid] <= qhiX {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	box := s.sortedBox
	for k := start; k < lo; k++ {
		b := 3 * k
		if box[b] < qloX {
			continue
		}
		if box[b+1] > qhiY || box[b+2] < qloY {
			continue
		}
		j := s.order[k]
		words[j>>6] |= 1 << (uint(j) & 63)
	}
}

// repairBudget bounds the total insertion shifts a build may spend
// repairing the previous order before falling back to the full sort.
// ~4·N·log₂N shifts is the point where repair work rivals the
// comparison sort it replaces; normal per-period motion costs well
// under one shift per aircraft, so only mass disruption (a reseeded
// world, wholesale teleports) trips it.
func repairBudget(n int) int64 {
	return 4 * int64(n) * int64(bits.Len(uint(n)))
}

// minmaxJob computes one repair block's key minimum and maximum (the
// low-x of the current order) for the run-boundary scan.
type minmaxJob struct{ s *Sweep }

//atm:noalloc
//atm:noescape
func (j *minmaxJob) Chunk(_, lo, hi int) {
	s := j.s
	mn, mx := math.Inf(1), math.Inf(-1)
	for k := lo; k < hi; k++ {
		v := s.lox[s.order[k]]
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	c := lo / repairChunk
	s.chunkMin[c], s.chunkMax[c] = mn, mx
}

// repairJob insertion-repairs one independent run of the sorted order.
type repairJob struct{ s *Sweep }

//atm:noalloc
//atm:noescape
func (j *repairJob) Chunk(_, lo, hi int) {
	s := j.s
	for ri := lo; ri < hi; ri++ {
		runLo := int(s.runs[ri])
		runHi := s.n
		if ri+1 < len(s.runs) {
			runHi = int(s.runs[ri+1])
		}
		s.runStats[ri] = s.repairRun(runLo, runHi)
	}
}

// repairRun insertion-sorts order[lo:hi) by low-x with a local shift
// budget. An abort leaves the run a valid permutation.
//
//atm:noalloc
//atm:noescape
func (s *Sweep) repairRun(lo, hi int) runStat {
	order, lox := s.order, s.lox
	budget := repairBudget(s.n)
	var shifts, resorted int64
	for k := lo + 1; k < hi; k++ {
		id := order[k]
		key := lox[id]
		j := k
		for j > lo && lox[order[j-1]] > key {
			order[j] = order[j-1]
			j--
		}
		if j == k {
			continue
		}
		order[j] = id
		resorted++
		shifts += int64(k - j)
		// Checked only after the element is fully inserted so that an
		// abort always leaves the run a valid permutation.
		if shifts > budget {
			return runStat{shifts: shifts, resorted: resorted, ok: false}
		}
	}
	return runStat{shifts: shifts, resorted: resorted, ok: true}
}

// repairOrderRuns restores the sorted order in place. It splits the
// nearly sorted order into independent runs at block boundaries where
// every key to the left is <= every key to the right — the maximum of
// the prefix against the minimum of the whole suffix, since a small key
// may sit several blocks further on — and insertion-repairs the runs in
// parallel. Sorting each run then sorts the whole order. The partition
// depends only on the data and each run's repair (and its abort point,
// bounded by a per-run budget) is deterministic, so the resulting order
// and the statistics are identical at every worker count. It returns
// false if any run aborted or the total spend exceeded the global
// budget; order is then still a valid permutation and the caller falls
// back to the full sort.
//
//atm:ordered-merge
func (s *Sweep) repairOrderRuns(p *parexec.Pool) bool {
	n := len(s.order)
	chunks := (n + repairChunk - 1) / repairChunk
	s.chunkMin = s.chunkMin[:chunks]
	s.chunkMax = s.chunkMax[:chunks]
	s.minmax.s = s
	runRange(p, n, repairChunk, &s.minmax)

	s.splitRuns()
	nr := len(s.runs)
	s.runStats = s.runStats[:nr]
	s.repair.s = s
	runRange(p, nr, 1, &s.repair)

	var shifts, resorted int64
	ok := true
	for ri := range s.runStats {
		shifts += s.runStats[ri].shifts
		resorted += s.runStats[ri].resorted
		ok = ok && s.runStats[ri].ok
	}
	s.stats.Moved += shifts
	s.stats.Resorted += resorted
	return ok && shifts <= repairBudget(n)
}

// splitRuns records in runs the first position of every independent
// repair run: block c starts a run when the largest key in the blocks
// before it is <= the smallest key in block c and every block after
// it. It overwrites chunkMin with those suffix minima.
func (s *Sweep) splitRuns() {
	mins, maxs := s.chunkMin, s.chunkMax
	for c := len(mins) - 2; c >= 0; c-- {
		if mins[c+1] < mins[c] {
			mins[c] = mins[c+1]
		}
	}
	s.runs = append(s.runs[:0], 0)
	prefix := maxs[0]
	for c := 1; c < len(mins); c++ {
		if prefix <= mins[c] {
			s.runs = append(s.runs, int32(c*repairChunk))
		}
		if maxs[c] > prefix {
			prefix = maxs[c]
		}
	}
}

// runRange runs body over [0, n) in grain chunks: on p when there is
// one, otherwise serially as worker 0.
func runRange(p *parexec.Pool, n, grain int, body parexec.Body) {
	if p != nil {
		p.RunBody(n, grain, body)
		return
	}
	for lo := 0; lo < n; lo += grain {
		body.Chunk(0, lo, min(lo+grain, n))
	}
}
