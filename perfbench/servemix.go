package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// runServeMix drives an in-process atmserve with closed-loop clients
// for the budget, then checks every reply against a fresh server. In
// trace mode it also times the key layer over the sequence and replays
// some of the cold runs through core for the core-side layer numbers.
func runServeMix(w workload, seed uint64, budget time.Duration, trace bool) (*outcome, error) {
	sp := w.Serve
	opts, err := serveOptions(sp)
	if err != nil {
		return nil, err
	}
	m, err := newMix(sp, seed)
	if err != nil {
		return nil, err
	}

	var setups []float64
	var ls *liveServer
	var warm []reply
	for r := 0; r < setupReps; r++ {
		if ls != nil {
			if err := ls.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		if ls, err = startServer(opts); err != nil {
			return nil, err
		}
		warm = m.warm(ls)
		setups = append(setups, time.Since(start).Seconds())
	}
	base := snapshot(ls.srv.Stats())

	// Clients move in rounds. In a hit round each client sends one hot
	// key; in a coalesced round all send the same fresh key. In a cold
	// round one client sends a fresh key and the others wait until the
	// server has admitted its run, then send busyHits hot keys each
	// while it runs. Runs therefore never share the host with another
	// run, which keeps each platform's run latency steady, while some
	// hits always overlap a run: a hit that waits behind a run shows in
	// light_ms_p90.
	type clientLog struct {
		replies []reply
		kinds   []int
		calls   []call
		heap    *heapSampler
		err     error
	}
	logs := make([]clientLog, sp.Clients)
	rounds := make([]chan round, sp.Clients)
	done := make(chan struct{}, sp.Clients) // one reply signal per client and round
	var wg sync.WaitGroup
	for c := range logs {
		rounds[c] = make(chan round)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lg := &logs[c]
			lg.heap = newHeapSampler()
			seq := m.client(c)
			send := func(kind int, call call) {
				lg.replies = append(lg.replies, ls.post(call))
				lg.kinds = append(lg.kinds, kind)
				lg.calls = append(lg.calls, call)
				lg.heap.sample()
			}
			for rd := range rounds[c] {
				if rd.kind == kindCold && rd.cold%sp.Clients != c {
					if rd.waitAdmitted(ls.srv.Stats()) {
						for i := 0; i < sp.BusyHits; i++ {
							send(kindBusyHit, seq.hot())
						}
					}
				} else {
					call, err := seq.next(rd)
					if err == nil {
						send(rd.kind, call)
					} else if lg.err == nil {
						lg.err = err
					}
					if rd.kind == kindCold {
						close(rd.sent)
					}
				}
				done <- struct{}{}
			}
		}(c)
	}
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < budget; r++ {
		rd := m.plan(r, ls.srv.Stats())
		for _, ch := range rounds {
			ch <- rd
		}
		for range rounds {
			<-done
		}
	}
	elapsed := time.Since(start)
	for _, ch := range rounds {
		close(ch)
	}
	wg.Wait()
	stats := snapshot(ls.srv.Stats()).minus(base)
	if err := ls.close(); err != nil {
		return nil, err
	}

	calls := map[string]call{}
	for _, c := range m.hot {
		calls[c.key] = c
	}
	var replies []reply
	var kinds []int
	var timed []call
	var heap []float64
	for _, lg := range logs {
		if lg.err != nil {
			return nil, lg.err
		}
		replies = append(replies, lg.replies...)
		kinds = append(kinds, lg.kinds...)
		timed = append(timed, lg.calls...)
		heap = append(heap, lg.heap.mb...)
	}
	for _, c := range timed {
		calls[c.key] = c
	}
	want, err := expectedBodies(opts, calls, sp.Clients)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	o.checkReplies(append(warm, replies...), want)

	var light, busy, coalesced, all []float64
	coldBy := map[string][]float64{}
	for i, r := range replies {
		all = append(all, ms(r.lat))
		switch kinds[i] {
		case kindHit:
			light = append(light, ms(r.lat))
		case kindBusyHit:
			light = append(light, ms(r.lat))
			busy = append(busy, ms(r.lat))
		case kindCold:
			coldBy[timed[i].platform] = append(coldBy[timed[i].platform], r.lat.Seconds())
		case kindCoalesced:
			coalesced = append(coalesced, ms(r.lat))
		}
	}
	platforms := make([]string, 0, len(coldBy))
	for p := range coldBy {
		platforms = append(platforms, p)
	}
	sort.Strings(platforms)
	// cycle_s weighs every platform alike: the geometric mean of each
	// platform's median fresh-run latency moves by the same share
	// whichever executor slows down by a given share.
	coldMedians := make([]float64, len(platforms))
	for i, p := range platforms {
		coldMedians[i] = median(coldBy[p])
		o.detail = append(o.detail,
			metric{"serve.cold_ms_p50." + p, 1000 * coldMedians[i], "ms"},
			metric{"serve.cold_runs." + p, float64(len(coldBy[p])), "count"})
	}
	o.detail = append(o.detail,
		metric{"serve.busy_hit_ms_p50", median(busy), "ms"},
		metric{"serve.busy_hit_share", ratio(float64(len(busy)), float64(len(light))), "ratio"})
	e2e := []metric{
		{"setup_s", median(setups), "s"},
		{"cycle_s", geomean(coldMedians), "s"},
		{"light_ms_p50", median(light), "ms"},
		{"light_ms_p90", quantile(light, 0.9), "ms"},
		{"heavy_ms_p50", median(coalesced), "ms"},
		{"op_ms_p99", quantile(all, 0.99), "ms"},
		{"ops_per_s", float64(len(replies)) / elapsed.Seconds(), "1/s"},
		{"heap_live_mb_p90", quantile(heap, 0.9), "MB"},
	}
	var sl serveLayers
	sl.stats = stats
	sl.addReplies(replies)
	if !trace {
		o.metrics = e2e
		return o, nil
	}

	o.detail = append(o.detail, e2e...)
	reqs := make([]serve.RunRequest, len(timed))
	for i, c := range timed {
		reqs[i] = c.req
	}
	sl.timeKeys(reqs)
	l, err := replayCold(timed, kinds, sp.ReplayPerPlatform, o)
	if err != nil {
		return nil, err
	}
	o.metrics = append(l.metrics(), sl.metrics()...)
	o.detail = append(o.detail, l.detail()...)
	return o, nil
}

// serveOptions decodes the workload's server options and pins the
// host workers.
func serveOptions(sp *serveSpec) (serve.Options, error) {
	var opts serve.Options
	if err := json.Unmarshal(sp.Options, &opts); err != nil {
		return serve.Options{}, fmt.Errorf("decode options: %w", err)
	}
	opts.Workers = hostWorkers()
	return opts, nil
}

// replayCold runs the first perPlatform cold runs of each platform
// through core twice, untraced and traced, on fresh systems: the core
// layers behind the serve mix. The two runs must leave identical
// worlds.
func replayCold(timed []call, kinds []int, perPlatform int, o *outcome) (*layers, error) {
	l := &layers{}
	taken := map[string]int{}
	for i, c := range timed {
		if kinds[i] != kindCold || taken[c.platform] >= perPlatform {
			continue
		}
		taken[c.platform]++
		cfg := core.Config{N: c.req.N, Seed: c.req.Seed, Scenario: c.req.Scenario, PairSource: c.req.PairSource}
		var fps [2][32]byte
		for pass := range fps {
			sys, err := newSystem(c.platform, cfg, hostWorkers())
			if err != nil {
				return nil, err
			}
			if pass == 0 {
				fps[pass] = l.untraced(sys, 1, 0)[0]
			} else {
				fps[pass] = l.traced(sys, 1, 0)[0]
			}
		}
		o.attempted++
		if fps[0] != fps[1] {
			o.fail(fmt.Sprintf("replay %s: traced world differs from untraced", c.key))
		}
	}
	if l.profErr != nil {
		return nil, l.profErr
	}
	return l, nil
}
