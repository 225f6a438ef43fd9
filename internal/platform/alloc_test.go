package platform

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/radar"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// maxAllocsPerCall bounds a platform task's steady-state allocations:
// a few fixed-size dispatch closures and counters, never anything that
// grows with the aircraft count.
const maxAllocsPerCall = 64

// TestAllocsDoNotGrowWithN pins the executors' allocation behaviour:
// after warm-up, one DetectResolve on titanx, xeon16 and xeonphi (no
// index and sweep, uniform and dense traffic) and one Track on titanx
// allocate the same number of objects at N=300 and N=1200, and at most
// maxAllocsPerCall, at every worker count. A per-thread, per-track or
// per-candidate allocation shows up as a count that scales with N.
func TestAllocsDoNotGrowWithN(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	dense, err := scenario.ParseSpec("dense:clusters=128,radius=2")
	if err != nil {
		t.Fatal(err)
	}
	traffic := map[string]func(n int) *airspace.World{
		"uniform": func(n int) *airspace.World { return airspace.NewWorld(n, rng.New(31)) },
		"dense":   func(n int) *airspace.World { return dense.Generate(n, rng.New(32)) },
	}
	allocs := func(name, src string, workers int, w *airspace.World, f *radar.Frame) float64 {
		p := MustNew(name, 1)
		p.(Workered).SetWorkers(workers)
		if src != "" {
			p.(PairSourced).SetPairSource(broadphase.MustNew(src))
		}
		run := func() { p.DetectResolve(w) }
		if f != nil {
			run = func() { p.Track(w, f) }
		}
		// Each sample starts with a warm-up call; the first sizes the
		// machine's scratch and starts the worker pool, the second lets
		// a persistent index settle after its first repair. Runtime
		// noise only ever adds allocations (a GC cycle empties the
		// runtime's caches of blocked-goroutine records, which the
		// worker pool then refills), so the lesser sample is the task's
		// own count.
		least := math.Inf(1)
		for range 2 {
			least = min(least, testing.AllocsPerRun(1, run))
		}
		return least
	}
	check := func(tag string, at func(n int) float64) {
		small, large := at(300), at(1200)
		if small != large || large > maxAllocsPerCall {
			t.Errorf("%s: %.0f allocs per call at N=300, %.0f at N=1200; want equal and <= %d",
				tag, small, large, maxAllocsPerCall)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		for _, name := range []string{TitanXPascal, Xeon16, XeonPhi} {
			for _, src := range []string{"", broadphase.SweepName} {
				for _, fam := range []string{"uniform", "dense"} {
					check(name+" DetectResolve src="+src+" "+fam+" workers="+strconv.Itoa(workers), func(n int) float64 {
						return allocs(name, src, workers, traffic[fam](n), nil)
					})
				}
			}
		}
		check("titanx Track workers="+strconv.Itoa(workers), func(n int) float64 {
			w := traffic["uniform"](n)
			return allocs(TitanXPascal, "", workers, w, radar.Generate(w, radar.DefaultNoise, rng.New(33)))
		})
	}
}
