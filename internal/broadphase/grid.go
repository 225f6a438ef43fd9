package broadphase

import (
	"math"

	"repro/internal/airspace"
	"repro/internal/parexec"
)

// Grid cell-size bounds for the automatic derivation: below MinCellNM
// the per-query cell walk dominates, above MaxCellNM a cell holds most
// of the field and pruning degenerates toward brute force.
const (
	MinCellNM     = 8.0
	MaxCellNM     = 64.0
	DefaultCellNM = 32.0
)

// Grid is a uniform hash grid over the 256×256 nm field treated as a
// torus: cell coordinates are folded modulo the grid dimensions, so an
// envelope spilling past one field edge lands in the cells on the
// opposite side. Because the conflict equations are purely linear (the
// (x, y) → (−x, −y) re-entry rule is applied by Task 1, never inside
// detection), the folding is a hashing choice, not a geometric claim:
// it can only merge far-apart cells into one bucket, which adds
// candidates and never loses one.
//
// Each aircraft is inserted into every cell its reach envelope touches;
// a track's row is the union of the occupants of the cells its own
// envelope touches. Two overlapping envelopes share at least one cell,
// so the row covers every pair the exactness argument requires. Build
// walks the tracks in index order through the shared table builder.
type Grid struct {
	// cellNM, when positive, fixes the cell size; otherwise Build
	// derives it from the mean envelope width of the current world.
	cellNM float64

	cell  float64
	nx    int
	cells [][]int32
	// reach holds every aircraft's envelope half-width for the row
	// queries; cols is the snapshot being built.
	reach []float64
	cols  *airspace.Columns

	tb    tableBuilder
	stats Stats
}

// NewGrid returns a grid index that derives its cell size from the
// traffic on every Build.
func NewGrid() *Grid { return &Grid{} }

// NewGridCell returns a grid index with a fixed cell size in nautical
// miles. It panics if cellNM is not positive.
func NewGridCell(cellNM float64) *Grid {
	if cellNM <= 0 {
		panic("broadphase: grid cell size must be positive")
	}
	return &Grid{cellNM: cellNM}
}

// Name returns "grid".
func (g *Grid) Name() string { return GridName }

// CellNM returns the cell size chosen by the last Build.
func (g *Grid) CellNM() float64 { return g.cell }

// TakeStats drains the counters accumulated since the last call.
func (g *Grid) TakeStats() Stats {
	st := g.stats
	g.stats = Stats{}
	return st
}

// Build bins every aircraft's reach envelope into the grid and builds
// the candidate table on p.
func (g *Grid) Build(c *airspace.Columns, p *parexec.Pool) *PairTable {
	n := c.N()
	g.cols = c
	if cap(g.reach) < n {
		g.reach = make([]float64, n)
	}
	g.reach = g.reach[:n]
	for i := range g.reach {
		g.reach[i] = ReachAt(c.DX[i], c.DY[i])
	}

	cell := g.cellNM
	if cell <= 0 {
		// Derive from the mean envelope width: a cell that roughly
		// matches the typical envelope keeps both the cells-per-insert
		// and the cells-per-query walk small.
		if n == 0 {
			cell = DefaultCellNM
		} else {
			sum := 0.0
			for _, r := range g.reach {
				sum += 2 * r
			}
			cell = math.Min(MaxCellNM, math.Max(MinCellNM, sum/float64(n)))
		}
	}
	g.cell = cell
	g.nx = int(math.Ceil(2 * airspace.FieldHalf / cell))
	if g.nx < 1 {
		g.nx = 1
	}

	want := g.nx * g.nx
	if len(g.cells) != want {
		g.cells = make([][]int32, want)
	} else {
		for i := range g.cells {
			g.cells[i] = g.cells[i][:0]
		}
	}
	for i, r := range g.reach {
		cx0, cxn := g.cellSpan(c.X[i]-r, c.X[i]+r)
		cy0, cyn := g.cellSpan(c.Y[i]-r, c.Y[i]+r)
		for yi := 0; yi < cyn; yi++ {
			row := g.fold(cy0+yi) * g.nx
			for xi := 0; xi < cxn; xi++ {
				k := row + g.fold(cx0+xi)
				g.cells[k] = append(g.cells[k], int32(i))
			}
		}
	}

	t, segs := g.tb.build(g, nil, n, p)
	g.stats.Queries += int64(n)
	g.stats.Candidates += int64(len(t.Cand))
	g.stats.Segments += int64(segs)
	return t
}

// cellSpan returns the first (unfolded) cell coordinate covering lo and
// the number of cells to walk, clamped to the grid width so a fully
// wrapped span visits each cell exactly once.
func (g *Grid) cellSpan(lo, hi float64) (c0, count int) {
	c0 = int(math.Floor((lo + airspace.FieldHalf) / g.cell))
	c1 := int(math.Floor((hi + airspace.FieldHalf) / g.cell))
	count = c1 - c0 + 1
	if count > g.nx {
		count = g.nx
	}
	return c0, count
}

// fold maps an unfolded cell coordinate onto the torus.
func (g *Grid) fold(c int) int {
	c %= g.nx
	if c < 0 {
		c += g.nx
	}
	return c
}

// markRow sets the bit of every occupant of the cells aircraft i's
// envelope touches. Pure with respect to the built grid.
//
//atm:noalloc
func (g *Grid) markRow(i int, words []uint64) {
	c, r := g.cols, g.reach[i]
	cx0, cxn := g.cellSpan(c.X[i]-r, c.X[i]+r)
	cy0, cyn := g.cellSpan(c.Y[i]-r, c.Y[i]+r)
	for yi := 0; yi < cyn; yi++ {
		row := g.fold(cy0+yi) * g.nx
		for xi := 0; xi < cxn; xi++ {
			for _, id := range g.cells[row+g.fold(cx0+xi)] {
				words[id>>6] |= 1 << (uint(id) & 63)
			}
		}
	}
}
