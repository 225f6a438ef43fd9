// Package platform defines the common interface the scheduler and the
// experiment harness use to drive the ATM tasks on any of the paper's
// architectures, plus a registry of the six evaluated machines:
// the three NVIDIA device models, the STARAN associative processor,
// the ClearSpeed CSX600 emulation, and the 16-core Xeon.
package platform

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/airspace"
	"repro/internal/ap"
	"repro/internal/broadphase"
	"repro/internal/cuda"
	"repro/internal/mimd"
	"repro/internal/radar"
	"repro/internal/telemetry"
	"repro/internal/vector"
)

// Platform executes the ATM tasks on one modeled architecture,
// mutating the world in place and returning the modeled task duration.
type Platform interface {
	// Name returns the human-readable machine name.
	Name() string
	// Deterministic reports whether the machine's modeled timing is a
	// pure function of the workload (true for CUDA and AP models, false
	// for the MIMD model).
	Deterministic() bool
	// Track runs Task 1 (tracking and correlation) for one period.
	Track(w *airspace.World, f *radar.Frame) time.Duration
	// DetectResolve runs Tasks 2-3 (collision detection + resolution)
	// for one major cycle.
	DetectResolve(w *airspace.World) time.Duration
}

// PairSourced is implemented by platforms whose Tasks 2-3 scan can be
// driven by a broadphase index's candidate table instead of the paper's
// all-pairs kernel. Passing nil restores the all-pairs behaviour.
type PairSourced interface {
	SetPairSource(idx broadphase.Index)
}

// Workered is implemented by platforms whose host execution can be
// pinned to a worker count (n <= 0 restores the process-default pool).
// Host workers change wall-clock speed only: every platform's modeled
// time is computed from per-core or per-chunk tallies that are merged
// deterministically, so results are identical at any worker count.
type Workered interface {
	SetWorkers(n int)
}

// Instrumented is implemented by platforms that can emit telemetry:
// per-kernel-phase spans and work counters recorded in modeled time
// into the given recorder. Passing nil detaches telemetry; attaching
// or detaching a recorder must never change modeled times or
// simulation results.
type Instrumented interface {
	SetTelemetry(rec *telemetry.Recorder)
}

// Compile-time interface checks for the four backends.
var (
	_ Platform = (*cuda.Platform)(nil)
	_ Platform = (*ap.Platform)(nil)
	_ Platform = (*mimd.Platform)(nil)
	_ Platform = (*vector.Platform)(nil)

	_ PairSourced = (*cuda.Platform)(nil)
	_ PairSourced = (*ap.Platform)(nil)
	_ PairSourced = (*mimd.Platform)(nil)
	_ PairSourced = (*vector.Platform)(nil)

	_ Workered = (*cuda.Platform)(nil)
	_ Workered = (*ap.Platform)(nil)
	_ Workered = (*mimd.Platform)(nil)
	_ Workered = (*vector.Platform)(nil)

	_ Instrumented = (*cuda.Platform)(nil)
	_ Instrumented = (*ap.Platform)(nil)
	_ Instrumented = (*mimd.Platform)(nil)
	_ Instrumented = (*vector.Platform)(nil)
)

// Registry keys for the six machines of the paper's evaluation.
const (
	GeForce9800GT = "9800gt"
	GTX880M       = "gtx880m"
	TitanXPascal  = "titanx"
	STARAN        = "staran"
	ClearSpeed    = "clearspeed"
	Xeon16        = "xeon16"
)

// Extension platform keys beyond the paper's six — the wide-vector
// commodity processors of the Section 7.2 future work.
const (
	XeonPhi = "xeonphi"
	AVX2    = "avx2"
)

// Names returns the registry keys of the paper's six machines in
// presentation order (NVIDIA cards oldest to newest, then AP, emulated
// AP, multicore). Extension machines are listed by ExtensionNames.
func Names() []string {
	return []string{GeForce9800GT, GTX880M, TitanXPascal, STARAN, ClearSpeed, Xeon16}
}

// ExtensionNames returns the registry keys of the future-work machines.
func ExtensionNames() []string {
	return []string{XeonPhi, AVX2}
}

// NVIDIANames returns just the three CUDA device keys.
func NVIDIANames() []string {
	return []string{GeForce9800GT, GTX880M, TitanXPascal}
}

// New constructs the named platform. seed only affects machines with
// internal stochastic behaviour (the MIMD jitter stream).
func New(name string, seed uint64) (Platform, error) {
	switch name {
	case GeForce9800GT:
		return cuda.NewPlatform(cuda.GeForce9800GT), nil
	case GTX880M:
		return cuda.NewPlatform(cuda.GTX880M), nil
	case TitanXPascal:
		return cuda.NewPlatform(cuda.TitanXPascal), nil
	case STARAN:
		return ap.NewPlatform(ap.STARAN), nil
	case ClearSpeed:
		return ap.NewPlatform(ap.ClearSpeedCSX600), nil
	case Xeon16:
		return mimd.NewPlatform(mimd.Xeon16, seed), nil
	case XeonPhi:
		return vector.NewPlatform(vector.XeonPhi7210), nil
	case AVX2:
		return vector.NewPlatform(vector.AVX2Workstation), nil
	}
	known := append(Names(), ExtensionNames()...)
	sort.Strings(known)
	return nil, fmt.Errorf("platform: unknown name %q (known: %v)", name, known)
}

// Label returns the display name for a registry key without
// constructing the platform, or the key itself if unknown.
func Label(name string) string {
	switch name {
	case GeForce9800GT:
		return cuda.GeForce9800GT.Name
	case GTX880M:
		return cuda.GTX880M.Name
	case TitanXPascal:
		return cuda.TitanXPascal.Name
	case STARAN:
		return ap.STARAN.Name
	case ClearSpeed:
		return ap.ClearSpeedCSX600.Name
	case Xeon16:
		return mimd.Xeon16.Name
	case XeonPhi:
		return vector.XeonPhi7210.Name
	case AVX2:
		return vector.AVX2Workstation.Name
	}
	return name
}

// MustNew is New that panics on error, for tables of known-good names.
func MustNew(name string, seed uint64) Platform {
	p, err := New(name, seed)
	if err != nil {
		panic(err)
	}
	return p
}
