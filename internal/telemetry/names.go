package telemetry

// Shared event names emitted by the platform adapters and core, kept
// in one place so exporters, tests and dashboards agree on spelling.
// Kernel-phase spans use the platform's own kernel/phase names (e.g.
// "census", "ap.boxpass").
const (
	// NameTransfer spans host<->device transfer time (CUDA devices).
	NameTransfer = "transfer"
	// NameCUDABlockOps gauges per-block thread ops (DetailBlock only);
	// Arg is the block index.
	NameCUDABlockOps = "cuda.block.ops"

	// NameTrackMatched counts aircraft updated from a radar return in
	// one Task 1 run.
	NameTrackMatched = "track.matched"

	// Detect/resolve work counters, one per Tasks 2-3 invocation.
	NameDetectConflicts  = "detect.conflicts"
	NameDetectRotations  = "detect.rotations"
	NameDetectResolved   = "detect.resolved"
	NameDetectUnresolved = "detect.unresolved"
	NameDetectPairChecks = "detect.pairchecks"

	// Broad-phase counters, drained by core from the installed index
	// after each Tasks 2-3 run: tracks indexed and the candidate-table
	// entries they received (N² for the brute oracle's implicit table).
	NameBroadphaseQueries    = "broadphase.queries"
	NameBroadphaseCandidates = "broadphase.candidates"

	// Sweep maintenance counters. Updates and Rebuilds partition the
	// builds (an update repaired the previous sorted order in place; a
	// rebuild ran a full sort); Moved and Resorted describe repair
	// effort.
	NameBroadphaseUpdates  = "broadphase.updates"
	NameBroadphaseRebuilds = "broadphase.rebuilds"
	NameBroadphaseMoved    = "broadphase.moved"
	NameBroadphaseResorted = "broadphase.resorted"

	// NameBroadphaseSegments counts candidate-table build segments
	// walked (sweep and grid); like every index counter it is identical
	// at every worker count.
	NameBroadphaseSegments = "broadphase.segments"

	// NameServeRun spans one whole served simulation (internal/serve):
	// it starts at the schedule origin and covers the run's virtual
	// elapsed time, so service-side exports carry the request envelope
	// alongside the scheduler's per-period and per-task spans.
	NameServeRun = "serve.run"
)
