package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/serve"
)

// workloadsJSON holds every workload's run configuration as data. The
// core and request objects decode leniently into core.Config and
// serve.RunRequest, so a mode field removed from either type is
// ignored here and the benchmark keeps building and running.
//
//go:embed workloads.json
var workloadsJSON []byte

type workload struct {
	Name  string     `json:"name"`
	Why   string     `json:"why"`
	Sim   *simSpec   `json:"sim,omitempty"`
	Serve *serveSpec `json:"serve,omitempty"`
}

// simSpec drives one system through core.NewSystem and RunPeriod. The
// platform is the request's platform.
type simSpec struct {
	Core    json.RawMessage `json:"core"`
	Request json.RawMessage `json:"request"`
}

// serveSpec is the serve-mix traffic, sent in rounds from a seeded
// sequence: in every coalesceEvery-th round all clients send one fresh
// key; in every other coldEvery-th round one client, in turn, sends a
// fresh key of the next cold platform while the others send busyHits
// hot keys each during its run; in the rest each client repeats one of
// the hot keys cached during set-up.
type serveSpec struct {
	Options       json.RawMessage   `json:"options"`
	Clients       int               `json:"clients"`
	Hot           []json.RawMessage `json:"hot"`
	HotSeeds      int               `json:"hot_seeds"`
	Cold          []json.RawMessage `json:"cold"`
	Coalesced     json.RawMessage   `json:"coalesced"`
	ColdEvery     int               `json:"cold_every"`
	CoalesceEvery int               `json:"coalesce_every"`
	BusyHits      int               `json:"busy_hits"`
	// ReplayPerPlatform is how many of the traced run's cold keys per
	// platform are replayed through core for the layer numbers.
	ReplayPerPlatform int `json:"replay_per_platform"`
}

func loadWorkloads(data []byte) ([]workload, error) {
	var doc struct {
		Workloads []workload `json:"workloads"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode workloads: %w", err)
	}
	seen := map[string]bool{}
	for _, w := range doc.Workloads {
		if seen[w.Name] {
			return nil, fmt.Errorf("workload %q listed twice", w.Name)
		}
		seen[w.Name] = true
		if err := w.validate(); err != nil {
			return nil, fmt.Errorf("workload %q: %w", w.Name, err)
		}
	}
	return doc.Workloads, nil
}

func findWorkload(name string) (workload, error) {
	all, err := loadWorkloads(workloadsJSON)
	if err != nil {
		return workload{}, err
	}
	for _, w := range all {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (w workload) validate() error {
	if w.Name == "" || w.Why == "" {
		return fmt.Errorf("needs a name and a why")
	}
	switch {
	case w.Sim != nil && w.Serve == nil:
		return w.Sim.validate()
	case w.Serve != nil && w.Sim == nil:
		return w.Serve.validate()
	}
	return fmt.Errorf("needs exactly one of sim and serve")
}

// decodeCore and decodeRequest are the only places the configuration
// objects become program types.
func decodeCore(raw json.RawMessage, seed uint64) (core.Config, error) {
	var cfg core.Config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return core.Config{}, fmt.Errorf("decode core config: %w", err)
	}
	cfg.Seed = seed
	return cfg, nil
}

func decodeRequest(raw json.RawMessage, seed uint64) (serve.RunRequest, error) {
	var req serve.RunRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		return serve.RunRequest{}, fmt.Errorf("decode request: %w", err)
	}
	req.Seed = seed
	return req, nil
}

// validate checks that the request canonicalizes and that the core
// config describes the same run: platform, N, scenario and pair source.
func (s *simSpec) validate() error {
	cfg, err := decodeCore(s.Core, 1)
	if err != nil {
		return err
	}
	req, err := decodeRequest(s.Request, 1)
	if err != nil {
		return err
	}
	rc, err := req.Canonicalize()
	if err != nil {
		return fmt.Errorf("request: %w", err)
	}
	canonical := serve.RunRequest{Platform: rc.Platform, N: cfg.N, Seed: 1, Scenario: cfg.Scenario, PairSource: cfg.PairSource}
	cc, err := canonical.Canonicalize()
	if err != nil {
		return fmt.Errorf("core config: %w", err)
	}
	if cc.N != rc.N || cc.Scenario != rc.Scenario || cc.PairSource != rc.PairSource {
		return fmt.Errorf("core config (n=%d scenario=%q pairsource=%q) and request (n=%d scenario=%q pairsource=%q) describe different runs",
			cc.N, cc.Scenario, cc.PairSource, rc.N, rc.Scenario, rc.PairSource)
	}
	return nil
}

func (s *serveSpec) validate() error {
	if s.Clients < 2 {
		return fmt.Errorf("needs at least 2 clients to coalesce, got %d", s.Clients)
	}
	if len(s.Hot) == 0 || s.HotSeeds < 1 || len(s.Cold) == 0 {
		return fmt.Errorf("needs hot keys, hot_seeds >= 1 and cold keys")
	}
	if s.ColdEvery < 2 || s.CoalesceEvery < 2 || s.BusyHits < 1 || s.ReplayPerPlatform < 1 {
		return fmt.Errorf("cold_every, coalesce_every must be >= 2, busy_hits and replay_per_platform >= 1")
	}
	if _, err := serveOptions(s); err != nil {
		return err
	}
	raws := append(append([]json.RawMessage{s.Coalesced}, s.Hot...), s.Cold...)
	for _, raw := range raws {
		req, err := decodeRequest(raw, 1)
		if err != nil {
			return err
		}
		if _, err := req.Canonicalize(); err != nil {
			return fmt.Errorf("request %s: %w", raw, err)
		}
	}
	return nil
}
