package ap

import (
	"time"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/radar"
	"repro/internal/telemetry"
)

// Platform adapts an associative machine profile to the scheduler's
// platform interface. It keeps one machine per database size so
// steady-state periods reuse the machine's scratch instead of
// reallocating it.
type Platform struct {
	prof    Profile
	idx     broadphase.Index
	workers int
	m       *Machine
	rec     *telemetry.Recorder
}

// NewPlatform returns a scheduler-facing platform for the profile.
func NewPlatform(p Profile) *Platform { return &Platform{prof: p} }

// machine returns the reusable machine sized for n records with a
// zeroed cycle counter.
func (p *Platform) machine(n int) *Machine {
	if p.m == nil || p.m.N() != n {
		p.m = NewMachine(p.prof, n)
		p.m.SetWorkers(p.workers)
	}
	p.m.ResetCycles()
	return p.m
}

// SetWorkers pins the host worker count used to execute the wide
// element loops (n <= 0 restores the process-default pool).
func (p *Platform) SetWorkers(n int) {
	p.workers = n
	if p.m != nil {
		p.m.SetWorkers(n)
	}
}

// SetPairSource installs a broadphase index for the detection program
// (nil keeps the full associative scan). On a true AP this only trims
// the PairChecks account, not the wide-operation time — see apScan.
func (p *Platform) SetPairSource(idx broadphase.Index) { p.idx = idx }

// SetTelemetry attaches a recorder (nil detaches): each task then
// records one span per program phase, reconstructed from the
// machine's cycle-counter checkpoints. Phases tile the task exactly
// (modulo per-span nanosecond rounding) because AP time is
// cycles/clock and the control unit is strictly sequential.
func (p *Platform) SetTelemetry(rec *telemetry.Recorder) { p.rec = rec }

// emitMarks converts the machine's phase checkpoints to back-to-back
// spans starting at the recorder's modeled now. total is the task's
// modeled duration, which closes the final phase.
func (p *Platform) emitMarks(m *Machine, total time.Duration) {
	base := p.rec.Now()
	for k := range m.marks {
		mk := &m.marks[k]
		start := m.timeAt(mk.cycles)
		end := total
		if k+1 < len(m.marks) {
			end = m.timeAt(m.marks[k+1].cycles)
		}
		p.rec.SpanArg(p.rec.Intern(mk.name), base+start, end-start, mk.arg)
	}
	m.marksOn = false
}

// Name returns the machine name.
func (p *Platform) Name() string { return p.prof.Name }

// Deterministic reports that AP timing is a pure function of the
// instruction trace — the synchronous-SIMD property the paper builds
// on.
func (p *Platform) Deterministic() bool { return true }

// Track runs Task 1 as an AP program and returns the modeled time.
func (p *Platform) Track(w *airspace.World, f *radar.Frame) time.Duration {
	m := p.machine(w.N())
	if p.rec != nil {
		m.beginMarks()
	}
	st := TrackProgram(m, w, f)
	d := m.Time()
	if p.rec != nil {
		p.emitMarks(m, d)
		p.rec.Counter(p.rec.Intern(telemetry.NameTrackMatched), int64(st.Matched))
	}
	return d
}

// DetectResolve runs Tasks 2-3 as an AP program and returns the
// modeled time.
func (p *Platform) DetectResolve(w *airspace.World) time.Duration {
	m := p.machine(w.N())
	if p.rec != nil {
		m.beginMarks()
	}
	st := DetectResolveProgramWith(m, w, p.idx)
	d := m.Time()
	if p.rec != nil {
		p.emitMarks(m, d)
		p.rec.Counter(p.rec.Intern(telemetry.NameDetectConflicts), int64(st.Conflicts))
		p.rec.Counter(p.rec.Intern(telemetry.NameDetectRotations), int64(st.Rotations))
		p.rec.Counter(p.rec.Intern(telemetry.NameDetectResolved), int64(st.Resolved))
		p.rec.Counter(p.rec.Intern(telemetry.NameDetectUnresolved), int64(st.Unresolved))
		p.rec.Counter(p.rec.Intern(telemetry.NameDetectPairChecks), int64(st.PairChecks))
	}
	return d
}
