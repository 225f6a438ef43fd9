package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"runtime"
	"time"

	"repro/internal/airspace"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/telemetry"
)

const periodsPerCycle = airspace.PeriodsPerMajorCycle

// setupReps is how many times a run builds its system or server; the
// median is setup_s and the last one built is measured.
const setupReps = 3

// newSystem builds a system on a fresh platform with its host workers
// pinned.
func newSystem(name string, cfg core.Config, workers int) (*core.System, error) {
	p, err := platform.New(name, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if wp, ok := p.(platform.Workered); ok {
		wp.SetWorkers(workers)
	}
	return core.NewSystem(p, cfg), nil
}

// allPairs is the paper's all-pairs lane for the same platform,
// scenario, N and seed: the oracle every pruned run must match.
func allPairs(cfg core.Config) core.Config {
	return core.Config{N: cfg.N, Seed: cfg.Seed, Noise: cfg.Noise, PeriodDur: cfg.PeriodDur, Scenario: cfg.Scenario}
}

// runCycle runs one major cycle and returns each period's host
// latency and the whole cycle's. heap, when non-nil, is sampled after
// every period.
func runCycle(sys *core.System, heap *heapSampler) (periods [periodsPerCycle]time.Duration, total time.Duration) {
	start := time.Now()
	for p := range periods {
		t := time.Now()
		sys.RunPeriod()
		periods[p] = time.Since(t)
		if heap != nil {
			heap.sample()
		}
	}
	return periods, time.Since(start)
}

// fingerprint hashes every committed aircraft field. ExpX/ExpY are
// left out: they are per-period scratch that executors working from
// structure-of-arrays snapshots legitimately leave different.
func fingerprint(w *airspace.World) [32]byte {
	h := sha256.New()
	var rec [12 * 8]byte
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		col := uint64(0)
		if a.Col {
			col = 1
		}
		vals := [...]uint64{
			uint64(uint32(a.ID)),
			math.Float64bits(a.X), math.Float64bits(a.Y),
			math.Float64bits(a.DX), math.Float64bits(a.DY),
			math.Float64bits(a.Alt),
			math.Float64bits(a.BatX), math.Float64bits(a.BatY),
			col,
			math.Float64bits(a.TimeTill),
			uint64(uint32(a.ColWith)),
			uint64(uint8(a.RMatch)),
		}
		for j, v := range vals {
			binary.LittleEndian.PutUint64(rec[8*j:], v)
		}
		h.Write(rec[:])
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// Telemetry counters read by name, so a later rename leaves the
// benchmark building (the metric then reads 0).
var layerCounters = []string{
	"track.matched",
	"detect.conflicts", "detect.rotations", "detect.resolved", "detect.pairchecks",
	"broadphase.queries", "broadphase.candidates",
	"broadphase.moved", "broadphase.rebuilds",
	"kernel.batches",
}

// layers accumulates the per-layer numbers of a traced run: untraced
// cycles for allocation and runtime counters and the overhead
// baseline, then traced cycles timed at the platform boundary with
// telemetry attached and DetectResolve profiled.
type layers struct {
	untracedCycles, tracedCycles []float64 // seconds
	allocObjects, allocBytes     float64
	runtimeCPU, busyCPU          float64

	periods  time.Duration // RunPeriod total, traced
	nPeriods int
	track    []float64 // ms
	detect   []float64 // ms
	trackSum time.Duration
	detSum   time.Duration
	overhead time.Duration
	aircraft float64 // aircraft handled by all traced Track calls
	cpu      cpuSplit
	profErr  error
	counters map[string]int64
}

// untraced runs cycles with no instrumentation beyond the runtime's
// own counters.
func (l *layers) untraced(sys *core.System, cycles int, budget time.Duration) [][32]byte {
	var fps [][32]byte
	before := readRuntime()
	start := time.Now()
	for i := 0; more(i, cycles, start, budget); i++ {
		_, total := runCycle(sys, nil)
		l.untracedCycles = append(l.untracedCycles, total.Seconds())
		fps = append(fps, fingerprint(sys.World))
	}
	after := readRuntime()
	l.allocObjects += after.allocObjects - before.allocObjects
	l.allocBytes += after.allocBytes - before.allocBytes
	l.runtimeCPU += (after.cpuGC - before.cpuGC) + (after.cpuScavenge - before.cpuScavenge)
	l.busyCPU += (after.cpuTotal - before.cpuTotal) - (after.cpuIdle - before.cpuIdle)
	return fps
}

// traced runs cycles with telemetry attached and the platform wrapped
// in a timer, then restores the platform.
func (l *layers) traced(sys *core.System, cycles int, budget time.Duration) [][32]byte {
	if l.counters == nil {
		l.counters = map[string]int64{}
	}
	rec := telemetry.NewRecorder(0)
	sys.SetTelemetry(rec)
	tp := &timedPlatform{Platform: sys.Platform, profile: true}
	sys.Platform = tp
	var fps [][32]byte
	start := time.Now()
	for i := 0; more(i, cycles, start, budget); i++ {
		periods, total := runCycle(sys, nil)
		l.tracedCycles = append(l.tracedCycles, total.Seconds())
		for _, d := range periods {
			l.periods += d
		}
		l.nPeriods += len(periods)
		fps = append(fps, fingerprint(sys.World))
	}
	sys.Platform = tp.Platform
	n := float64(len(sys.World.Aircraft))
	for _, d := range tp.track {
		l.track = append(l.track, ms(d))
		l.trackSum += d
		l.aircraft += n
	}
	for _, d := range tp.detect {
		l.detect = append(l.detect, ms(d))
		l.detSum += d
	}
	l.overhead += tp.overhead
	l.cpu.broadphase += tp.samples.broadphase
	l.cpu.executor += tp.samples.executor
	l.cpu.runtime += tp.samples.runtime
	l.cpu.samples += tp.samples.samples
	if l.profErr == nil {
		l.profErr = tp.profErr
	}
	for _, name := range layerCounters {
		l.counters[name] += rec.SumOf(name)
	}
	return fps
}

// metrics returns the core-layer per-layer metrics. The traced cycle
// time splits exactly into Track + DetectResolve + core self time
// (radar generation, scheduling, telemetry drain), with the
// profiler's own start/stop cost taken out.
func (l *layers) metrics() []metric {
	passes := float64(len(l.detect))
	c := func(name string) float64 { return float64(l.counters[name]) }
	work, self := l.split()
	// Allocation and runtime counters come from the untraced cycles.
	untraced := float64(len(l.untracedCycles))
	return []metric{
		{"exec.track_ms_p50", median(l.track), "ms"},
		{"exec.track_share", ratio(l.trackSum.Seconds(), work.Seconds()), "ratio"},
		{"exec.detect_resolve_ms_p50", median(l.detect), "ms"},
		{"exec.detect_resolve_share", ratio(l.detSum.Seconds(), work.Seconds()), "ratio"},
		{"core.self_ms_per_period", ratio(ms(self), float64(l.nPeriods)), "ms"},
		{"broadphase.cpu_share", ratio(l.cpu.broadphase, l.cpu.total()), "ratio"},
		{"exec.kernel_cpu_share", ratio(l.cpu.executor, l.cpu.total()), "ratio"},
		{"track.matched_per_aircraft", ratio(c("track.matched"), l.aircraft), "ratio"},
		{"detect.pairchecks", ratio(c("detect.pairchecks"), passes), "count"},
		{"detect.rotations", ratio(c("detect.rotations"), passes), "count"},
		{"detect.resolved_per_conflict", ratio(c("detect.resolved"), c("detect.conflicts")), "ratio"},
		{"broadphase.candidates_per_query", ratio(c("broadphase.candidates"), c("broadphase.queries")), "ratio"},
		{"broadphase.moved", ratio(c("broadphase.moved"), passes), "count"},
		{"broadphase.rebuilds", ratio(c("broadphase.rebuilds"), passes), "count"},
		{"kernel.batches", ratio(c("kernel.batches"), passes), "count"},
		{"alloc.objects_per_cycle", ratio(l.allocObjects, untraced), "count"},
		{"alloc.bytes_per_cycle", ratio(l.allocBytes, untraced), "bytes"},
		{"runtime.cpu_share", ratio(l.runtimeCPU, l.busyCPU), "ratio"},
		{"trace.overhead_pct", 100 * (ratio(median(l.tracedCycles), median(l.untracedCycles)) - 1), "%"},
	}
}

// detail returns report-only numbers that qualify the metrics: the
// core self share, and how many profile samples the DetectResolve CPU
// split rests on with the standard error of its broadphase share.
func (l *layers) detail() []metric {
	work, self := l.split()
	n := float64(l.cpu.samples)
	p := ratio(l.cpu.broadphase, l.cpu.total())
	return []metric{
		{"core.self_share", ratio(self.Seconds(), work.Seconds()), "ratio"},
		{"profile.samples", n, "count"},
		{"broadphase.cpu_share_stderr", math.Sqrt(ratio(p*(1-p), n)), "ratio"},
	}
}

// split returns the traced RunPeriod time without the profiler's own
// start/stop cost, and the part of it neither Track nor DetectResolve
// took: core's self time.
func (l *layers) split() (work, self time.Duration) {
	work = l.periods - l.overhead
	return work, work - l.trackSum - l.detSum
}

// more reports whether to run cycle i: exactly cycles of them when
// cycles > 0, otherwise at least one and then until budget has passed.
func more(i, cycles int, start time.Time, budget time.Duration) bool {
	if cycles > 0 {
		return i < cycles
	}
	return i == 0 || time.Since(start) < budget
}

// hostWorkers is the host worker count every run pins: one per CPU.
func hostWorkers() int { return runtime.NumCPU() }
