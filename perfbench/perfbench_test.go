package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// TestWorkloadsDecodeAndValidate decodes every workload's configuration
// and checks the list matches BENCHMARK.json's.
func TestWorkloadsDecodeAndValidate(t *testing.T) {
	all, err := loadWorkloads(workloadsJSON)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(all) {
		t.Fatalf("BENCHMARK.json lists %d workloads, workloads.json %d", len(bench.Workloads), len(all))
	}
	for i, w := range all {
		if bench.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json has %q, workloads.json %q", i, bench.Workloads[i].Name, w.Name)
		}
		if w.Sim == nil {
			continue
		}
		cfg, err := decodeCore(w.Sim.Core, 7)
		if err != nil {
			t.Fatal(err)
		}
		req, err := decodeRequest(w.Sim.Request, 7)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.N != req.N || cfg.Seed != 7 || req.Seed != 7 {
			t.Errorf("%s: decoded core N=%d seed=%d, request N=%d seed=%d", w.Name, cfg.N, cfg.Seed, req.N, req.Seed)
		}
		if _, err := newSystem(req.Platform, cfg, 1); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

func TestWorkloadValidationRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"workloads":[{"name":"a","why":"b","sim":{"core":{"N":10},"request":{"platform":"titanx","n":10}},"extra":1}]}`,
		"runs disagree": `{"workloads":[{"name":"a","why":"b","sim":{"core":{"N":10},"request":{"platform":"titanx","n":20}}}]}`,
		"bad platform":  `{"workloads":[{"name":"a","why":"b","sim":{"core":{"N":10},"request":{"platform":"nope","n":10}}}]}`,
		"no kind":       `{"workloads":[{"name":"a","why":"b"}]}`,
		"duplicate":     `{"workloads":[{"name":"a","why":"b","sim":{"core":{"N":10},"request":{"platform":"titanx","n":10}}},{"name":"a","why":"b","sim":{"core":{"N":10},"request":{"platform":"titanx","n":10}}}]}`,
	}
	for name, doc := range cases {
		if _, err := loadWorkloads([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// smallSim is a workload's core config scaled down for tests.
func smallSim(t *testing.T, workloadName string, n int) (string, core.Config) {
	t.Helper()
	w, err := findWorkload(workloadName)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := decodeCore(w.Sim.Core, 11)
	if err != nil {
		t.Fatal(err)
	}
	req, err := decodeRequest(w.Sim.Request, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg.N = n
	return req.Platform, cfg
}

// TestOracleFiresOnPerturbedWorld checks that the all-pairs oracle
// accepts the real trajectory and flags a world changed by one bit.
func TestOracleFiresOnPerturbedWorld(t *testing.T) {
	name, cfg := smallSim(t, "uniform-4k", 400)
	sys, err := newSystem(name, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	runCycle(sys, nil)
	var fps [][32]byte
	for i := 0; i < 2; i++ {
		runCycle(sys, nil)
		fps = append(fps, fingerprint(sys.World))
	}
	bad, err := allPairsMismatches(name, cfg, 2, fps)
	if err != nil || len(bad) != 0 {
		t.Fatalf("real trajectory: mismatches %v, err %v", bad, err)
	}
	sys.World.Aircraft[3].TimeTill += 1e-9
	fps[1] = fingerprint(sys.World)
	bad, err = allPairsMismatches(name, cfg, 2, fps)
	if err != nil || len(bad) != 1 || bad[0] != 1 {
		t.Fatalf("perturbed world: mismatches %v, err %v; want [1]", bad, err)
	}
}

// TestOracleFiresOnPerturbedBody checks served bodies against a fresh
// server's and flags a body changed by one byte.
func TestOracleFiresOnPerturbedBody(t *testing.T) {
	w, err := findWorkload("serve-mix")
	if err != nil {
		t.Fatal(err)
	}
	c, err := newCall(w.Serve.Cold[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := serveOptions(w.Serve)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := startServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	replies := []reply{ls.post(c), ls.post(c)}
	if err := ls.close(); err != nil {
		t.Fatal(err)
	}
	want, err := expectedBodies(opts, map[string]call{c.key: c}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var o outcome
	o.checkReplies(replies, want)
	if o.attempted != 2 || o.failed != 0 {
		t.Fatalf("real bodies: %d checked, %d failed", o.attempted, o.failed)
	}
	if replies[0].how != "miss" || replies[1].how != "hit" {
		t.Errorf("outcomes %q, %q; want miss, hit", replies[0].how, replies[1].how)
	}
	perturbed := replies[1]
	perturbed.sum[0] ^= 1
	o = outcome{}
	o.checkReplies([]reply{replies[0], perturbed}, want)
	if o.failed != 1 {
		t.Fatalf("perturbed body: %d failed, want 1", o.failed)
	}
}

// TestTracedRunIsNeutral checks that telemetry, the platform timer
// and the CPU profile leave every world bit-identical to an untraced
// run, at 1 and 2 host workers.
func TestTracedRunIsNeutral(t *testing.T) {
	for _, wl := range []string{"uniform-4k", "dense-4k"} {
		name, cfg := smallSim(t, wl, 600)
		var ref [][32]byte
		for _, workers := range []int{1, 2} {
			var l layers
			plain, err := newSystem(name, cfg, workers)
			if err != nil {
				t.Fatal(err)
			}
			untraced := l.untraced(plain, 2, 0)
			traced, err := newSystem(name, cfg, workers)
			if err != nil {
				t.Fatal(err)
			}
			got := l.traced(traced, 2, 0)
			if l.profErr != nil {
				t.Fatal(l.profErr)
			}
			for i := range untraced {
				if got[i] != untraced[i] {
					t.Errorf("%s workers=%d cycle %d: traced world differs from untraced", wl, workers, i)
				}
			}
			if ref == nil {
				ref = untraced
			} else if ref[len(ref)-1] != untraced[len(untraced)-1] {
				t.Errorf("%s: workers=%d world differs from workers=1", wl, workers)
			}
			if len(l.detect) != 2 || len(l.track) != 2*periodsPerCycle {
				t.Errorf("%s: timed %d DetectResolve and %d Track calls", wl, len(l.detect), len(l.track))
			}
		}
	}
}

// TestPlanRotatesColdPlatforms checks the serve-mix plan: coalesced
// rounds take precedence, and the cold rounds actually planned give
// every cold platform the same number of fresh runs, sent by the
// clients in turn.
func TestPlanRotatesColdPlatforms(t *testing.T) {
	w, err := findWorkload("serve-mix")
	if err != nil {
		t.Fatal(err)
	}
	sp := w.Serve
	m, err := newMix(sp, 3)
	if err != nil {
		t.Fatal(err)
	}
	var st serve.Stats
	rounds := 8 * len(sp.Cold) * sp.ColdEvery * sp.CoalesceEvery
	byPlatform := map[string]int{}
	byClient := map[int]int{}
	for r := 0; r < rounds; r++ {
		rd := m.plan(r, &st)
		if r%sp.CoalesceEvery == sp.CoalesceEvery-1 && rd.kind != kindCoalesced {
			t.Fatalf("round %d: kind %d, want coalesced", r, rd.kind)
		}
		if rd.kind != kindCold {
			continue
		}
		c, err := m.client(0).next(rd)
		if err != nil {
			t.Fatal(err)
		}
		byPlatform[c.platform]++
		byClient[rd.cold%sp.Clients]++
	}
	if len(byPlatform) != len(sp.Cold) {
		t.Fatalf("cold runs by platform %v; want all %d platforms", byPlatform, len(sp.Cold))
	}
	for p, n := range byPlatform {
		if n != m.colds/len(sp.Cold) {
			t.Errorf("platform %s: %d cold runs of %d, want an equal share", p, n, m.colds)
		}
	}
	for c, n := range byClient {
		if n != m.colds/sp.Clients {
			t.Errorf("client %d sends %d cold runs of %d, want an equal share", c, n, m.colds)
		}
	}
}

func TestCompareRefusesDifferentHostShapes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, h hostShape) string {
		rec := record{Workload: "w", Seconds: 10, Host: h, Result: line{Metrics: map[string]jsonMetric{"cycle_s": {1, "s"}}}}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	h := currentHost()
	a := write("a.json", h)
	b := write("b.json", h)
	h.NProc++
	c := write("c.json", h)
	var out bytes.Buffer
	if err := compare(&out, []string{a, b}); err != nil {
		t.Fatalf("same host shape refused: %v", err)
	}
	if err := compare(&out, []string{a, c}); err == nil || !strings.Contains(err.Error(), "host shape") {
		t.Fatalf("different host shapes compared: %v", err)
	}
}

func burn(d time.Duration) float64 {
	x := 1.0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	return x
}

func TestProfileStacksDecodes(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profile already running:", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := profileStacks(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range stacks {
		if s.value <= 0 {
			t.Fatalf("sample with value %v", s.value)
		}
		for _, fn := range s.funcs {
			found = found || strings.HasSuffix(fn, ".burn")
		}
	}
	if !found {
		t.Fatalf("no sample in burn among %d stacks", len(stacks))
	}
	if _, err := profileStacks([]byte("not a profile")); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestLeafPackage(t *testing.T) {
	funcs := []string{"runtime.memmove", "repro/internal/broadphase.(*Sweep).walk.func1", "repro/internal/cuda.(*Engine).run"}
	if got := leafPackage(funcs, "repro/"); got != broadphasePkg {
		t.Errorf("leafPackage = %q", got)
	}
	if got := leafPackage(funcs[:1], "repro/"); got != "" {
		t.Errorf("leafPackage(runtime only) = %q", got)
	}
}
