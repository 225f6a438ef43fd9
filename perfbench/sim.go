package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// runSim drives one system end to end: set-up, timed major cycles,
// then the oracle. In trace mode the timed phase is split into
// untraced and traced halves, and the workload's own request is served
// once over loopback for the serve-side layer numbers.
func runSim(w workload, seed uint64, budget time.Duration, trace bool) (*outcome, error) {
	cfg, err := decodeCore(w.Sim.Core, seed)
	if err != nil {
		return nil, err
	}
	req, err := decodeRequest(w.Sim.Request, seed)
	if err != nil {
		return nil, err
	}
	workers := hostWorkers()
	var setups []float64
	var sys *core.System
	for r := 0; r < setupReps; r++ {
		sys = nil
		runtime.GC()
		start := time.Now()
		if sys, err = newSystem(req.Platform, cfg, workers); err != nil {
			return nil, err
		}
		runCycle(sys, nil)
		setups = append(setups, time.Since(start).Seconds())
	}

	o := &outcome{}
	var fps [][32]byte
	if trace {
		var l layers
		fps = append(l.untraced(sys, 0, budget/2), l.traced(sys, 0, budget/2)...)
		if l.profErr != nil {
			return nil, l.profErr
		}
		o.metrics = l.metrics()
		o.detail = append(l.detail(),
			metric{"setup_s", median(setups), "s"},
			metric{"cycle_s", median(l.untracedCycles), "s"})
	} else {
		heap := newHeapSampler()
		var light, heavy, all, cycles []float64
		start := time.Now()
		for i := 0; more(i, 0, start, budget); i++ {
			periods, total := runCycle(sys, heap)
			for p, d := range periods {
				all = append(all, ms(d))
				if p == periodsPerCycle-1 {
					heavy = append(heavy, ms(d))
				} else {
					light = append(light, ms(d))
				}
			}
			cycles = append(cycles, total.Seconds())
			fps = append(fps, fingerprint(sys.World))
		}
		o.metrics = []metric{
			{"setup_s", median(setups), "s"},
			{"cycle_s", median(cycles), "s"},
			{"light_ms_p50", median(light), "ms"},
			{"light_ms_p90", quantile(light, 0.9), "ms"},
			{"heavy_ms_p50", median(heavy), "ms"},
			{"op_ms_p99", quantile(all, 0.99), "ms"},
			{"ops_per_s", ratio(float64(len(all)), sum(cycles)), "1/s"},
			{"heap_live_mb_p90", quantile(heap.mb, 0.9), "MB"},
		}
	}
	sys = nil

	o.attempted = len(fps)
	bad, err := allPairsMismatches(req.Platform, cfg, workers, fps)
	if err != nil {
		return nil, err
	}
	for _, i := range bad {
		o.fail(fmt.Sprintf("cycle %d: world differs from the all-pairs lane", i+1))
	}

	if trace {
		sl, err := probeServe(req, o)
		if err != nil {
			return nil, err
		}
		o.metrics = append(o.metrics, sl.metrics()...)
	}
	return o, nil
}

// allPairsMismatches replays the paper's all-pairs lane for the same
// platform, scenario, N and seed: one warm-up cycle, then one cycle per
// fingerprint, and returns the indexes of the cycles whose world
// differs.
func allPairsMismatches(name string, cfg core.Config, workers int, fps [][32]byte) ([]int, error) {
	sys, err := newSystem(name, allPairs(cfg), workers)
	if err != nil {
		return nil, err
	}
	runCycle(sys, nil)
	var bad []int
	for i, fp := range fps {
		runCycle(sys, nil)
		if fingerprint(sys.World) != fp {
			bad = append(bad, i)
		}
	}
	return bad, nil
}

// probeHits is how many cache hits each probe client sends.
const probeHits = 200

// probeServe serves one request over loopback: two clients send it at
// once (a cold run and a coalesced waiter), then both repeat it (cache
// hits). Every reply is checked against a fresh server's answer.
func probeServe(req serve.RunRequest, o *outcome) (serveLayers, error) {
	var sl serveLayers
	c, err := callFor(req)
	if err != nil {
		return sl, err
	}
	opts := serve.Options{Workers: hostWorkers()}
	ls, err := startServer(opts)
	if err != nil {
		return sl, err
	}
	keys := make([]serve.RunRequest, 1000)
	for i := range keys {
		keys[i] = req
	}
	sl.timeKeys(keys)

	const clients = 2
	replies := make([][]reply, clients)
	for _, n := range []int{1, probeHits} {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range replies {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				for k := 0; k < n; k++ {
					replies[i] = append(replies[i], ls.post(c))
				}
			}(i)
		}
		close(start)
		wg.Wait()
	}
	sl.stats = snapshot(ls.srv.Stats())
	if err := ls.close(); err != nil {
		return sl, err
	}
	var all []reply
	for _, r := range replies {
		all = append(all, r...)
	}
	sl.addReplies(all)
	want, err := expectedBodies(opts, map[string]call{c.key: c}, 1)
	if err != nil {
		return sl, err
	}
	o.checkReplies(all, want)
	return sl, nil
}
