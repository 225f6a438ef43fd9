// Host-parallel execution of Task 1 on the parexec engine.
//
// Parallelism here is about the simulator's wall clock only: every
// modeled-time figure is derived from operation tallies elsewhere, and
// Correlate is bit-for-bit identical to the serial reference at any
// worker count. The construction is phased: a parallel phase computes
// per-item results that depend only on state the task never mutates,
// and a serial phase replays the reference control flow in radar-index
// order, consuming the precomputed results instead of recomputing them.
//
// Expected positions are fixed for the whole invocation, so each
// (radar, pass) bounding-box candidate set is a pure function of
// geometry. The parallel phase computes those candidate lists per pass;
// the serial replay runs the reference matching state machine over the
// candidates only, in radar-index then aircraft-index order, and
// reconstructs the Comparisons tally (which the reference counts per
// eligible aircraft, hit or miss) from the candidate walk plus the set
// of aircraft withdrawn before the scan started. A radar released
// mid-pass has no precomputed list and falls back to the reference
// inner loop. (The fused Task 2+3 executor and its exactness argument
// live in batch.go.)
package tasks

import (
	"repro/internal/airspace"
	"repro/internal/parexec"
	"repro/internal/radar"
)

// Work-queue grains of the correlation phases: the radar loop hands out
// small index ranges so skewed per-radar costs keep every worker busy;
// the element-wise aircraft loops use a larger grain because their
// per-item cost is uniform.
const (
	radarGrain = 16
	elemGrain  = 1024
)

// Correlator runs Task 1 on one engine pool and owns the parallel
// path's scratch: per-radar candidate offsets, the withdrawal list and
// one candidate buffer per worker. Keep one across periods and a
// steady-state Correlate allocates nothing proportional to the
// aircraft count. A Correlator is not safe for concurrent use.
type Correlator struct {
	pool      *parexec.Pool
	start     []int32 // per radar: offset into its worker's buffer, -1 = no list
	length    []int32
	owner     []int32
	withdrawn []int32
	bufs      []workerBuf
}

// NewCorrelator returns a correlator on pool (nil: the process default
// at each call).
func NewCorrelator(pool *parexec.Pool) *Correlator {
	return &Correlator{pool: pool}
}

// Correlate is CorrelateN on the correlator's pool. Results are
// identical at any worker count.
func (c *Correlator) Correlate(w *airspace.World, f *radar.Frame, passes int) CorrelateStats {
	if passes < 1 {
		panic("tasks: CorrelateN needs at least one pass")
	}
	p := parexec.Resolve(c.pool)
	var st CorrelateStats
	if p.Workers() == 1 {
		correlateSerial(w, f, passes, &st)
		return st
	}
	c.prepare(len(f.Reports), p.Workers())
	c.correlateParallel(w, f, passes, p, &st)
	return st
}

// prepare sizes the scratch for nr radars on workers workers.
func (c *Correlator) prepare(nr, workers int) {
	if cap(c.start) < nr {
		c.start = make([]int32, nr)
		c.length = make([]int32, nr)
		c.owner = make([]int32, nr)
	}
	c.start = c.start[:nr]
	c.length = c.length[:nr]
	c.owner = c.owner[:nr]
	if len(c.bufs) < workers {
		c.bufs = append(c.bufs, make([]workerBuf, workers-len(c.bufs))...)
	}
}

// correlateParallel is Task 1 with the per-pass bounding-box search
// fanned out per radar and a serial replay of the matching state
// machine (see the file comment for the exactness argument).
//
//atm:ordered-merge
func (c *Correlator) correlateParallel(w *airspace.World, f *radar.Frame, passes int, p *parexec.Pool, st *CorrelateStats) {
	n := w.N()
	nr := len(f.Reports)

	//atm:noalloc
	p.Run(n, elemGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			a := &w.Aircraft[i]
			a.ExpX = a.X + a.DX
			a.ExpY = a.Y + a.DY
			a.RMatch = airspace.MatchNone
		}
	})
	f.Reset()

	withdrawn := c.withdrawn[:0]
	boxHalf := InitialBoxHalf
	for pass := 0; pass < passes; pass++ {
		pending := 0
		for i := range f.Reports {
			if f.Reports[i].MatchWith == radar.Unmatched {
				pending++
			}
		}
		if pass < BoxPasses {
			st.PassRadars[pass] = pending
		}
		if pending == 0 {
			break
		}

		// Parallel phase: geometric box-hit candidates for every radar
		// still unmatched at pass start. Expected positions and the box
		// size are fixed for the whole pass, so the lists cannot go
		// stale; eligibility (withdrawals, earlier matches) is dynamic
		// and left to the replay.
		for wk := range c.bufs {
			c.bufs[wk].cand = c.bufs[wk].cand[:0]
		}
		//atm:noalloc
		p.Run(nr, radarGrain, func(worker, lo, hi int) {
			buf := c.bufs[worker].cand
			for j := lo; j < hi; j++ {
				rep := &f.Reports[j]
				if rep.MatchWith != radar.Unmatched {
					c.start[j] = -1
					continue
				}
				s := int32(len(buf))
				for q := range w.Aircraft {
					if inBox(rep, &w.Aircraft[q], boxHalf) {
						buf = append(buf, int32(q))
					}
				}
				c.start[j] = s
				c.length[j] = int32(len(buf)) - s
				c.owner[j] = int32(worker)
			}
			c.bufs[worker].cand = buf
		})

		// Serial replay in radar-index order.
		for j := range f.Reports {
			rep := &f.Reports[j]
			if rep.MatchWith != radar.Unmatched {
				continue
			}
			if c.start[j] < 0 {
				// Released mid-pass by a withdrawal: no precomputed
				// list, run the reference inner loop.
				correlateRadarFallback(w, f, rep, boxHalf, st, &withdrawn)
				continue
			}
			priorWithdrawn := len(withdrawn)
			cand := c.bufs[c.owner[j]].cand[c.start[j] : c.start[j]+c.length[j]]
			broke := int32(-1)
			for _, q := range cand {
				a := &w.Aircraft[q]
				if a.RMatch != airspace.MatchNone && a.RMatch != airspace.MatchOne {
					continue // withdrawn aircraft are out of the search
				}
				switch a.RMatch {
				case airspace.MatchNone:
					if rep.MatchWith == radar.Unmatched {
						a.RMatch = airspace.MatchOne
						rep.MatchWith = a.ID
					} else {
						prev := &w.Aircraft[rep.MatchWith]
						prev.RMatch = airspace.MatchNone
						rep.MatchWith = radar.Discarded
						st.DiscardedRadars++
					}
				case airspace.MatchOne:
					a.RMatch = airspace.MatchDiscarded
					st.WithdrawnAircraft++
					releaseRadarOf(f, a.ID)
					withdrawn = append(withdrawn, q)
				}
				if rep.MatchWith == radar.Discarded {
					broke = q
					break
				}
			}
			// Reconstruct the reference's Comparisons tally: it counts
			// every aircraft not yet withdrawn when the scan started
			// (withdrawals made during a scan happen at the withdrawn
			// aircraft's own, already-counted visit), up to the break
			// point if the radar was discarded.
			if broke >= 0 {
				eligible := int(broke) + 1
				for _, q := range withdrawn[:priorWithdrawn] {
					if q <= broke {
						eligible--
					}
				}
				st.Comparisons += eligible
			} else {
				st.Comparisons += n - priorWithdrawn
			}
		}
		boxHalf *= 2
	}
	c.withdrawn = withdrawn[:0]

	// Commit (line 12) and field re-entry, with the element-wise
	// aircraft loops fanned out and the radar loop serial.
	//atm:noalloc
	p.Run(n, elemGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			a := &w.Aircraft[i]
			a.X, a.Y = a.ExpX, a.ExpY
		}
	})
	for i := range f.Reports {
		rep := &f.Reports[i]
		switch rep.MatchWith {
		case radar.Unmatched:
			st.UnmatchedRadars++
		case radar.Discarded:
			// already counted
		default:
			a := &w.Aircraft[rep.MatchWith]
			if a.RMatch == airspace.MatchOne {
				a.X, a.Y = rep.RX, rep.RY
				st.Matched++
			}
		}
	}
	//atm:noalloc
	p.Run(n, elemGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			airspace.Wrap(&w.Aircraft[i])
		}
	})
}

// correlateRadarFallback scans one radar against every aircraft with
// the reference inner loop, recording withdrawals for the replay's
// Comparisons bookkeeping.
//
//atm:noalloc
func correlateRadarFallback(w *airspace.World, f *radar.Frame, rep *radar.Report, boxHalf float64, st *CorrelateStats, withdrawn *[]int32) {
	for q := range w.Aircraft {
		a := &w.Aircraft[q]
		if a.RMatch != airspace.MatchNone && a.RMatch != airspace.MatchOne {
			continue
		}
		st.Comparisons++
		if !inBox(rep, a, boxHalf) {
			continue
		}
		switch a.RMatch {
		case airspace.MatchNone:
			if rep.MatchWith == radar.Unmatched {
				a.RMatch = airspace.MatchOne
				rep.MatchWith = a.ID
			} else {
				prev := &w.Aircraft[rep.MatchWith]
				prev.RMatch = airspace.MatchNone
				rep.MatchWith = radar.Discarded
				st.DiscardedRadars++
			}
		case airspace.MatchOne:
			a.RMatch = airspace.MatchDiscarded
			st.WithdrawnAircraft++
			releaseRadarOf(f, a.ID)
			*withdrawn = append(*withdrawn, int32(q))
		}
		if rep.MatchWith == radar.Discarded {
			break
		}
	}
}
