package mimd

import (
	"time"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/radar"
	"repro/internal/telemetry"
)

// Platform adapts a Machine to the scheduler's platform interface.
type Platform struct {
	m   *Machine
	rec *telemetry.Recorder
}

// NewPlatform returns a scheduler-facing multicore platform. seed fixes
// the jitter stream for whole-program reproducibility.
func NewPlatform(p Profile, seed uint64) *Platform {
	return &Platform{m: New(p, seed)}
}

// Machine exposes the underlying multicore machine.
func (p *Platform) Machine() *Machine { return p.m }

// SetPairSource installs a broadphase index on the machine (nil
// restores the all-pairs scan).
func (p *Platform) SetPairSource(idx broadphase.Index) { p.m.SetPairSource(idx) }

// SetWorkers pins the host worker count used to execute the modeled
// cores (n <= 0 restores the process-default pool).
func (p *Platform) SetWorkers(n int) { p.m.SetWorkers(n) }

// SetTelemetry attaches a recorder (nil detaches): each task then
// records one span per parallel phase plus an explicit overhead span.
// Phase durations are the critical core's op deltas at the base
// per-core rate plus the phase barrier; the remainder of the task —
// contention, lock arbitration, scheduling jitter, the modeled
// overheads that make MIMD timing non-constant — is emitted as a
// trailing "mimd.overhead" span, so the trace shows exactly how much
// of the task the paper's MIMD criticism accounts for. Spans tile the
// task's modeled time exactly (modulo nanosecond rounding).
func (p *Platform) SetTelemetry(rec *telemetry.Recorder) { p.rec = rec }

// emitMarks converts the machine's phase snapshots to back-to-back
// spans starting at the recorder's modeled now; total closes the
// trailing overhead span.
func (p *Platform) emitMarks(total time.Duration) {
	m := p.m
	t := &m.scr.tally
	cores := m.prof.Cores
	cstar := 0
	for c := 1; c < cores; c++ {
		if t.ops[c] > t.ops[cstar] {
			cstar = c
		}
	}
	rate := m.prof.IPC * m.prof.ClockHz
	base := p.rec.Now()
	off := base
	var prev uint64
	for k := range m.marks {
		mk := &m.marks[k]
		cur := m.markOps[k*cores+cstar]
		dur := time.Duration(float64(cur-prev)/rate*float64(time.Second)) + m.prof.BarrierCost
		p.rec.SpanArg(p.rec.Intern(mk.name), off, dur, mk.arg)
		off += dur
		prev = cur
	}
	if tail := total - (off - base); tail > 0 {
		p.rec.Span(p.rec.Intern("mimd.overhead"), off, tail)
	}
	m.marksOn = false
}

// Name returns the machine name.
func (p *Platform) Name() string { return p.m.Name() }

// Deterministic reports false — the MIMD property under test.
func (p *Platform) Deterministic() bool { return false }

// Track runs Task 1 and returns the modeled time.
func (p *Platform) Track(w *airspace.World, f *radar.Frame) time.Duration {
	if p.rec != nil {
		p.m.beginMarks()
	}
	st, d := p.m.Track(w, f)
	if p.rec != nil {
		p.emitMarks(d)
		p.rec.Counter(p.rec.Intern(telemetry.NameTrackMatched), int64(st.Matched))
	}
	return d
}

// DetectResolve runs Tasks 2-3 and returns the modeled time.
func (p *Platform) DetectResolve(w *airspace.World) time.Duration {
	if p.rec != nil {
		p.m.beginMarks()
	}
	st, d := p.m.DetectResolve(w)
	if p.rec != nil {
		p.emitMarks(d)
		p.rec.Counter(p.rec.Intern(telemetry.NameDetectConflicts), int64(st.Conflicts))
		p.rec.Counter(p.rec.Intern(telemetry.NameDetectRotations), int64(st.Rotations))
		p.rec.Counter(p.rec.Intern(telemetry.NameDetectResolved), int64(st.Resolved))
		p.rec.Counter(p.rec.Intern(telemetry.NameDetectUnresolved), int64(st.Unresolved))
		p.rec.Counter(p.rec.Intern(telemetry.NameDetectPairChecks), int64(st.PairChecks))
	}
	return d
}
