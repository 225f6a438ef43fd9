package airspace

// Columns is a structure-of-arrays view of a world: the five fields the
// collision-detection inner loops read, held as parallel dense float64
// slices indexed by aircraft index. A candidate scan that strides
// through []Aircraft touches one 100+-byte record per visit and evicts
// most of it unused (the altitude filter rejects the vast majority of
// candidates before position or velocity is ever read); the same scan
// over Columns reads an 8-byte element from a slice small enough to
// stay cache-resident across every query of a detection pass.
//
// Columns relies on the repository-wide invariant that Aircraft.ID
// equals the record's index (SetupFlight establishes it, no task breaks
// it) — the invariant the sweep broad phase already builds on — so
// column index i and aircraft ID i name the same flight.
//
// A Columns is a snapshot: callers refresh it with FillFrom once per
// task invocation and must mirror any mid-task velocity commit into DX
// and DY themselves (the detection executors do exactly that at their
// heading-commit sites).
type Columns struct {
	X, Y   []float64
	DX, DY []float64
	Alt    []float64
}

// N returns the number of aircraft captured by the snapshot.
func (c *Columns) N() int { return len(c.X) }

// Resize sizes the columns for n aircraft, reusing capacity, without
// refreshing their contents. Callers that write every element
// themselves (the modeled-device snapshot kernels) use it in place of
// FillFrom; like FillFrom, it allocates only while growing.
func (c *Columns) Resize(n int) {
	if cap(c.X) < n {
		c.grow(n)
		return
	}
	c.X, c.Y = c.X[:n], c.Y[:n]
	c.DX, c.DY = c.DX[:n], c.DY[:n]
	c.Alt = c.Alt[:n]
}

// grow resizes the columns for n aircraft, reusing capacity. Growth is
// the cold path kept out of FillFrom's noalloc contract.
func (c *Columns) grow(n int) {
	if cap(c.X) < n {
		c.X = make([]float64, n)
		c.Y = make([]float64, n)
		c.DX = make([]float64, n)
		c.DY = make([]float64, n)
		c.Alt = make([]float64, n)
	}
	c.X, c.Y = c.X[:n], c.Y[:n]
	c.DX, c.DY = c.DX[:n], c.DY[:n]
	c.Alt = c.Alt[:n]
}

// FillFrom refreshes the snapshot from the world's current state. In
// steady state (capacity already grown to the world size) it performs
// no allocations.
//
//atm:noalloc
func (c *Columns) FillFrom(w *World) {
	n := len(w.Aircraft)
	if cap(c.X) < n {
		c.grow(n) //atm:allow noallocflow -- cold path: grow runs only until capacity reaches the world size, then never again
	} else {
		c.X, c.Y = c.X[:n], c.Y[:n]
		c.DX, c.DY = c.DX[:n], c.DY[:n]
		c.Alt = c.Alt[:n]
	}
	fillColumns(c.X, c.Y, c.DX, c.DY, c.Alt, w.Aircraft)
}

// fillColumns scatters the AoS world into the SoA columns. The length
// guard teaches the prove pass that every column covers src, so the
// scatter loop runs with zero bounds checks and nothing spills to the
// heap — both held by the compiler-diagnostics gate.
//
//atm:noalloc
//atm:noescape
//atm:nobce
func fillColumns(x, y, dx, dy, alt []float64, src []Aircraft) {
	n := len(src)
	if len(x) < n || len(y) < n || len(dx) < n || len(dy) < n || len(alt) < n {
		return
	}
	for i := 0; i < n; i++ {
		a := &src[i]
		x[i], y[i] = a.X, a.Y
		dx[i], dy[i] = a.DX, a.DY
		alt[i] = a.Alt
	}
}

// SetVel mirrors a committed velocity change into the snapshot, keeping
// it consistent with the world after a mid-task heading commit.
//
//atm:inline
//atm:noalloc
func (c *Columns) SetVel(i int, dx, dy float64) {
	c.DX[i], c.DY[i] = dx, dy
}
