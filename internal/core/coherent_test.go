package core

import (
	"bytes"
	"testing"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/parexec"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/telemetry"
)

// freshSweep is a sweep index that forgets its sorted order: every
// Build sorts a brand-new sweep from scratch.
type freshSweep struct{}

func (freshSweep) Name() string { return broadphase.SweepName }

func (freshSweep) Build(c *airspace.Columns, p *parexec.Pool) *broadphase.PairTable {
	return broadphase.NewSweep().Build(c, p)
}

func (freshSweep) TakeStats() broadphase.Stats { return broadphase.Stats{} }

// TestCoherentBitIdentical pins the temporal-coherence contract on
// every registered platform: a run whose sweep index repairs its sorted
// order across Tasks 2-3 invocations produces byte-identical replay
// output — same worlds, same per-period modeled task times, same
// deadline record — as the same run with the order rebuilt from
// scratch at every invocation. Three major cycles give the persistent
// sweep two builds that repair a previous order (periods 31 and 47) on
// top of the initial sort (period 15).
func TestCoherentBitIdentical(t *testing.T) {
	record := func(name string, rebuild bool) []byte {
		p := platform.MustNew(name, 2018)
		p.(platform.Workered).SetWorkers(1)
		sys := NewSystem(p, Config{N: 500, Seed: 2018, PairSource: "sweep"})
		if rebuild {
			p.(platform.PairSourced).SetPairSource(freshSweep{})
		}
		var buf bytes.Buffer
		rec := replay.NewRecorder(&buf)
		sys.SetRecorder(rec)
		sys.RunMajorCycles(3)
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, name := range append(platform.Names(), platform.ExtensionNames()...) {
		name := name
		t.Run(name, func(t *testing.T) {
			rebuild := record(name, true)
			coherent := record(name, false)
			if !bytes.Equal(rebuild, coherent) {
				t.Fatalf("%s: coherent run diverged from rebuild run (replay bytes differ, %d vs %d bytes)",
					name, len(rebuild), len(coherent))
			}
		})
	}
}

// TestCoherentMaintainerWired verifies NewSystem installs one sweep
// index for the life of the system and drains its maintenance counters
// into telemetry: a run that crosses two Tasks 2-3 invocations records
// the initial sort and at least one in-place repair.
func TestCoherentMaintainerWired(t *testing.T) {
	p := platform.MustNew(platform.Xeon16, 7)
	p.(platform.Workered).SetWorkers(1)
	sys := NewSystem(p, Config{N: 300, Seed: 7, PairSource: "sweep"})
	if _, ok := sys.index.(*broadphase.Sweep); !ok {
		t.Fatalf("PairSource sweep installed %T, want *broadphase.Sweep", sys.index)
	}
	rec := telemetry.NewRecorder(telemetry.DefaultCapacity)
	sys.SetTelemetry(rec)
	sys.RunMajorCycles(2)
	if got := rec.SumOf(telemetry.NameBroadphaseRebuilds); got != 1 {
		t.Fatalf("first build should sort once, rebuilds = %d", got)
	}
	if got := rec.SumOf(telemetry.NameBroadphaseUpdates); got < 1 {
		t.Fatalf("second Tasks 2-3 invocation should repair in place, updates = %d", got)
	}
	if got := rec.SumOf(telemetry.NameBroadphaseQueries); got != 2*300 {
		t.Fatalf("two builds of 300 tracks should count 600 queries, got %d", got)
	}
	if got := sys.index.TakeStats(); got != (broadphase.Stats{}) {
		t.Fatalf("core did not drain the index counters: %+v", got)
	}
}
