package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve"
)

// liveServer is an in-process atmserve listening on loopback.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan error
	client *http.Client
}

func startServer(opts serve.Options) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := serve.New(opts)
	s := &liveServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String() + "/v1/simulate",
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for Serve to return, then drains the
// serve layer's executors.
func (s *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if derr := s.srv.Shutdown(ctx); err == nil {
		err = derr
	}
	return err
}

// reply is what the benchmark keeps of one response.
type reply struct {
	key    string
	status int
	how    string // X-Atmserve-Cache: hit, miss or coalesced
	sum    [32]byte
	lat    time.Duration
}

func (s *liveServer) post(c call) reply {
	start := time.Now()
	r := reply{key: c.key}
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(c.body))
	if err != nil {
		r.lat = time.Since(start)
		return r
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.lat = time.Since(start)
	if err != nil {
		return r
	}
	r.status = resp.StatusCode
	r.how = resp.Header.Get("X-Atmserve-Cache")
	r.sum = sha256.Sum256(body)
	return r
}

// call is one request ready to send: its canonical key (the oracle's
// index), its body, and the platform it runs on.
type call struct {
	req      serve.RunRequest
	key      string
	body     []byte
	platform string
}

func newCall(raw json.RawMessage, seed uint64) (call, error) {
	req, err := decodeRequest(raw, seed)
	if err != nil {
		return call{}, err
	}
	return callFor(req)
}

func callFor(req serve.RunRequest) (call, error) {
	rc, err := req.Canonicalize()
	if err != nil {
		return call{}, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return call{}, err
	}
	return call{req: req, key: rc.Key(), body: body, platform: rc.Platform}, nil
}

// oracleAttempts bounds how often expectedBodies asks for one key. A
// 503 is retried: atmserve can drop a freshly admitted run as abandoned
// before its requester registers as a waiter, and answers that
// requester 503 "retry". Timed requests get no retry, so the race
// counts as a failure there.
const oracleAttempts = 5

// expectedBodies asks a fresh server for every key, from concurrent
// clients, and returns each body's hash: a cold run from a server that
// has never seen the key is the expected answer.
func expectedBodies(opts serve.Options, calls map[string]call, clients int) (map[string][32]byte, error) {
	ls, err := startServer(opts)
	if err != nil {
		return nil, err
	}
	todo := make(chan call, len(calls))
	for _, c := range calls {
		todo <- c
	}
	close(todo)
	var mu sync.Mutex
	want := make(map[string][32]byte, len(calls))
	var firstErr error
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range todo {
				r := ls.post(c)
				for a := 1; a < oracleAttempts && r.status == http.StatusServiceUnavailable; a++ {
					r = ls.post(c)
				}
				mu.Lock()
				if r.status != http.StatusOK && firstErr == nil {
					firstErr = fmt.Errorf("oracle request %s: status %d", c.key, r.status)
				}
				want[c.key] = r.sum
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := ls.close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return want, firstErr
}

// checkReplies counts every reply and fails each one that is not a 200
// carrying exactly the expected body for its key.
func (o *outcome) checkReplies(replies []reply, want map[string][32]byte) {
	o.attempted += len(replies)
	for _, r := range replies {
		exp, ok := want[r.key]
		if r.status == http.StatusOK && ok && r.sum == exp {
			continue
		}
		o.fail(fmt.Sprintf("request %s: status %d, body matches: %t", r.key, r.status, ok && r.sum == exp))
	}
}

// statsSnapshot copies the serve counters the benchmark reports.
type statsSnapshot struct {
	requests, hits, coalesced, runs, shed, timeouts int64
}

func snapshot(s *serve.Stats) statsSnapshot {
	return statsSnapshot{
		requests:  s.Requests.Load(),
		hits:      s.CacheHits.Load(),
		coalesced: s.Coalesced.Load(),
		runs:      s.Runs.Load(),
		shed:      s.Shed.Load(),
		timeouts:  s.Timeouts.Load(),
	}
}

func (a statsSnapshot) minus(b statsSnapshot) statsSnapshot {
	return statsSnapshot{a.requests - b.requests, a.hits - b.hits, a.coalesced - b.coalesced,
		a.runs - b.runs, a.shed - b.shed, a.timeouts - b.timeouts}
}

// serveLayers gathers the serve-side per-layer numbers.
type serveLayers struct {
	keyUS                []float64
	hit, miss, coalesced []float64 // ms, by X-Atmserve-Cache outcome
	stats                statsSnapshot
}

func (l *serveLayers) addReplies(replies []reply) {
	for _, r := range replies {
		switch r.how {
		case "hit":
			l.hit = append(l.hit, ms(r.lat))
		case "miss":
			l.miss = append(l.miss, ms(r.lat))
		case "coalesced":
			l.coalesced = append(l.coalesced, ms(r.lat))
		}
	}
}

// timeKeys times RunRequest.Canonicalize + RunConfig.Key, the key
// layer every request passes before the cache.
func (l *serveLayers) timeKeys(reqs []serve.RunRequest) {
	for _, req := range reqs {
		start := time.Now()
		rc, err := req.Canonicalize()
		if err == nil {
			_ = rc.Key()
		}
		l.keyUS = append(l.keyUS, float64(time.Since(start))/float64(time.Microsecond))
	}
}

func (l *serveLayers) metrics() []metric {
	req := float64(l.stats.requests)
	return []metric{
		{"serve.key_us_p50", median(l.keyUS), "us"},
		{"serve.hit_ms_p50", median(l.hit), "ms"},
		{"serve.hit_ms_p99", quantile(l.hit, 0.99), "ms"},
		{"serve.cold_ms_p50", median(l.miss), "ms"},
		{"serve.coalesced_ms_p50", median(l.coalesced), "ms"},
		{"serve.hit_ratio", ratio(float64(l.stats.hits), req), "ratio"},
		{"serve.coalesced_ratio", ratio(float64(l.stats.coalesced), req), "ratio"},
		{"serve.run_ratio", ratio(float64(l.stats.runs), req), "ratio"},
		{"serve.runs", float64(l.stats.runs), "count"},
		{"serve.shed", float64(l.stats.shed), "count"},
		{"serve.timeouts", float64(l.stats.timeouts), "count"},
	}
}

// Request kinds of the serve-mix sequence.
const (
	kindHit     = iota
	kindBusyHit // a hit sent while a fresh run is in flight
	kindCold
	kindCoalesced
)

// mix generates the serve-mix request sequence from the seed.
type mix struct {
	spec  *serveSpec
	seed  uint64
	hot   []call
	colds int // cold rounds planned so far
}

// subSeed derives a distinct, non-zero simulation seed for one request
// of the sequence.
func subSeed(seed uint64, kind, client, idx int) uint64 {
	x := seed ^ uint64(kind)<<56 ^ uint64(client)<<40 ^ uint64(idx)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x | 1
}

func newMix(spec *serveSpec, seed uint64) (*mix, error) {
	m := &mix{spec: spec, seed: seed}
	for s := 0; s < spec.HotSeeds; s++ {
		for i, raw := range spec.Hot {
			c, err := newCall(raw, subSeed(seed, kindHit, 0, s*len(spec.Hot)+i))
			if err != nil {
				return nil, err
			}
			m.hot = append(m.hot, c)
		}
	}
	return m, nil
}

// round is one round of the sequence as every client sees it.
type round struct {
	r    int
	kind int // kindHit, kindCold or kindCoalesced
	// For a cold round: the index of its fresh key, the server's
	// admission count before the round, and a channel the sending
	// client closes once it has its reply.
	cold     int
	admitted int64
	sent     chan struct{}
}

// plan returns round r. Coalesced rounds take precedence over cold
// ones; a cold round's key index counts the cold rounds planned before
// it, so the platforms take equal turns and the clients alternate.
func (m *mix) plan(r int, st *serve.Stats) round {
	sp := m.spec
	switch {
	case r%sp.CoalesceEvery == sp.CoalesceEvery-1:
		return round{r: r, kind: kindCoalesced}
	case r%sp.ColdEvery == sp.ColdEvery-1:
		m.colds++
		return round{r: r, kind: kindCold, cold: m.colds - 1, admitted: st.Admitted.Load(), sent: make(chan struct{})}
	}
	return round{r: r, kind: kindHit}
}

// waitAdmitted blocks until the server has admitted the round's fresh
// run, and reports false if the request was answered without one.
func (rd round) waitAdmitted(st *serve.Stats) bool {
	for st.Admitted.Load() == rd.admitted {
		select {
		case <-rd.sent:
			return st.Admitted.Load() != rd.admitted
		default:
			time.Sleep(50 * time.Microsecond)
		}
	}
	return true
}

// clientSeq is one client's view of the sequence.
type clientSeq struct {
	m   *mix
	rng *rand.Rand
}

func (m *mix) client(c int) *clientSeq {
	return &clientSeq{m: m, rng: rand.New(rand.NewPCG(m.seed, uint64(c)+1))}
}

// hot draws one of the hot keys.
func (s *clientSeq) hot() call { return s.m.hot[s.rng.IntN(len(s.m.hot))] }

// next returns the call a client sends in round rd: a hot key, the
// round's coalesced key, or the cold round's fresh key of the next
// platform in turn.
func (s *clientSeq) next(rd round) (call, error) {
	sp := s.m.spec
	switch rd.kind {
	case kindCoalesced:
		return newCall(sp.Coalesced, subSeed(s.m.seed, kindCoalesced, 0, rd.r))
	case kindCold:
		return newCall(sp.Cold[rd.cold%len(sp.Cold)], subSeed(s.m.seed, kindCold, 0, rd.cold))
	}
	return s.hot(), nil
}

// warm sends every hot key twice, sequentially: the first pass runs
// them, the second serves them from the cache.
func (m *mix) warm(ls *liveServer) []reply {
	var out []reply
	for pass := 0; pass < 2; pass++ {
		for _, c := range m.hot {
			out = append(out, ls.post(c))
		}
	}
	return out
}
