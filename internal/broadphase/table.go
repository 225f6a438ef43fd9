// Worker-parallel candidate tables.
//
// A PairTable materializes every track's broad-phase candidate set for
// one detection invocation in CSR form. Both pruning indexes build it
// with the same two-pass builder: the index's walk order (the sweep's
// sorted order, the grid's index order) is partitioned into
// grain-aligned contiguous segments that self-schedule across the
// parexec pool; each segment emits its candidate rows into the
// segment's own padded buffer, and a second pass copies the rows into
// their final CSR slots, whose offsets depend only on the per-track
// candidate counts — so the finished table is byte-identical at every
// worker count, whatever order the segments were claimed in. Buffers
// are per segment rather than per worker so their steady-state sizes
// are stable too: a segment's candidate count drifts slowly with
// traffic, while a worker's share of dynamically claimed segments
// varies run to run and would regrow its buffer toward the full table
// size.
//
// What the table buys is reuse. The candidate set of a track depends
// only on positions and speeds, and collision resolution probes rotated
// headings, which preserve speed; the index is never rebuilt within an
// invocation. Every rotation probe and every dirty-replay rescan
// therefore serves from the table instead of re-running the index
// query.
package broadphase

import (
	"math/bits"

	"repro/internal/parexec"
)

// tableGrain is the segment size of the table build: one self-scheduled
// chunk covers this many consecutive walk positions. Small enough to
// load-balance skewed candidate counts, large enough that the per-chunk
// bookkeeping is noise.
const tableGrain = 256

// PairTable holds every track's candidate set in CSR form: track i's
// candidates are Cand[Start[i]:Start[i+1]], ascending. It is valid
// until the next Build of the index that returned it.
type PairTable struct {
	Start []int32
	Cand  []int32
}

// Candidates returns track i's candidate set, ascending.
//
//atm:noalloc
//atm:inline
func (t *PairTable) Candidates(i int) []int32 {
	return t.Cand[t.Start[i]:t.Start[i+1]]
}

// rowSource is the query half of an index: it marks track i's
// candidates in words (one bit per aircraft; zero on entry) and leaves
// the emission to the builder.
type rowSource interface {
	markRow(i int, words []uint64)
}

// tableBuf is one segment's candidate-row buffer, padded so slice
// headers written by different workers don't share a cache line.
type tableBuf struct {
	cand []int32
	_    [40]byte
}

// tableBuilder is the shared fill/copy builder and its owned scratch:
// the table itself, the per-segment row buffers, the per-track counts
// and one query bitmap per worker.
type tableBuilder struct {
	src   rowSource
	order []int32 // walk order; nil walks index order
	n     int

	table PairTable
	segs  []tableBuf
	cnt   []int32
	words [][]uint64

	fill   fillJob
	copier copyJob
}

// at returns the track at walk position k.
//
//atm:inline
func (b *tableBuilder) at(k int) int {
	if b.order == nil {
		return k
	}
	return int(b.order[k])
}

// build fills the table for n tracks, walking order (nil = index
// order) on p (nil = serial), and returns it with its segment count.
func (b *tableBuilder) build(src rowSource, order []int32, n int, p *parexec.Pool) (*PairTable, int) {
	b.src, b.order, b.n = src, order, n
	t := &b.table
	if cap(t.Start) < n+1 {
		t.Start = make([]int32, n+1)
	}
	t.Start = t.Start[:n+1]
	if cap(b.cnt) < n {
		b.cnt = make([]int32, n)
	}
	b.cnt = b.cnt[:n]
	segs := (n + tableGrain - 1) / tableGrain
	if len(b.segs) < segs {
		b.segs = append(b.segs, make([]tableBuf, segs-len(b.segs))...)
	}
	workers := 1
	if p != nil {
		workers = p.Workers()
	}
	if len(b.words) < workers {
		b.words = append(b.words, make([][]uint64, workers-len(b.words))...)
	}
	nw := (n + 63) / 64
	for w := range b.words[:workers] {
		if len(b.words[w]) < nw {
			b.words[w] = make([]uint64, nw)
		}
	}

	b.fill.b = b
	runRange(p, n, tableGrain, &b.fill)
	sum := int32(0)
	for i := 0; i < n; i++ {
		t.Start[i] = sum
		sum += b.cnt[i]
	}
	t.Start[n] = sum
	if cap(t.Cand) < int(sum) {
		// An eighth of headroom: the candidate total drifts by a few
		// hundred entries per period as traffic moves, and exact sizing
		// would reallocate the whole table on every new high-water mark.
		t.Cand = make([]int32, sum, int(sum)+int(sum)/8)
	}
	t.Cand = t.Cand[:sum]
	b.copier.b = b
	runRange(p, n, tableGrain, &b.copier)
	return t, segs
}

// fillJob walks one grain-aligned segment of walk positions, emitting
// each track's candidate row into the segment's buffer and recording
// the row length per track. The buffer belongs to the segment, not the
// claiming worker, so the copy pass finds each row at a fixed place
// and steady-state buffer sizes are independent of the claim order.
type fillJob struct{ b *tableBuilder }

//atm:noalloc
func (j *fillJob) Chunk(worker, lo, hi int) {
	b := j.b
	seg := lo / tableGrain
	buf := b.segs[seg].cand[:0]
	words := b.words[worker]
	nw := (b.n + 63) / 64
	for k := lo; k < hi; k++ {
		id := b.at(k)
		b.src.markRow(id, words)
		before := len(buf)
		for wi := 0; wi < nw; wi++ {
			word := words[wi]
			if word == 0 {
				continue
			}
			words[wi] = 0
			base := int32(wi) << 6
			for word != 0 {
				buf = append(buf, base+int32(bits.TrailingZeros64(word)))
				word &= word - 1
			}
		}
		b.cnt[id] = int32(len(buf) - before)
	}
	b.segs[seg].cand = withHeadroom(buf) //atm:allow noallocflow -- headroom regrow only, amortized to nothing in steady state
}

// withHeadroom returns buf, reallocated with an eighth of spare
// capacity when it has nearly run out. Segment candidate counts drift
// a little every period, and a buffer ending exactly at capacity would
// regrow on the very next build; the headroom absorbs the drift so the
// steady state stays allocation-free. Same policy as the CSR Cand
// array in build.
func withHeadroom(buf []int32) []int32 {
	if cap(buf)-len(buf) >= len(buf)/16 {
		return buf
	}
	nb := make([]int32, len(buf), len(buf)+len(buf)/8+64)
	copy(nb, buf)
	return nb
}

// copyJob moves one segment's candidate rows from the segment buffer
// into their final CSR slots. Offsets are fully determined by the
// per-track counts, so the result is independent of the fill pass's
// chunk-claim order.
type copyJob struct{ b *tableBuilder }

//atm:noalloc
//atm:noescape
func (j *copyJob) Chunk(_, lo, hi int) {
	b := j.b
	src := b.segs[lo/tableGrain].cand
	off := 0
	for k := lo; k < hi; k++ {
		id := b.at(k)
		c := int(b.cnt[id])
		st := int(b.table.Start[id])
		copy(b.table.Cand[st:st+c], src[off:off+c])
		off += c
	}
}
