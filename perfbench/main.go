// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload (see workloads.json) for a fixed time, checks
// every output against an oracle, prints a report and, as its last
// line, one JSON object with the correctness tally and the metrics:
// the end-to-end metrics, or with -trace 1 the per-layer metrics of a
// separately traced run.
//
//	perfbench -workload uniform-4k -seed 1 -seconds 10 -trace 0
//	perfbench -workload all -seed 1 -seconds 10
//	perfbench compare a.json b.json
//
// Every result is also written, with the host shape it was measured
// on, under -out; compare refuses results from different host shapes.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Name  string
	Value float64
	Unit  string
}

// outcome is one workload run: the operations checked against the
// oracle, the metrics of the JSON line, and report-only detail.
type outcome struct {
	attempted, failed int
	metrics           []metric
	detail            []metric
	notes             []string
}

func (o *outcome) fail(note string) {
	o.failed++
	if len(o.notes) < 5 {
		o.notes = append(o.notes, note)
	}
}

// hostShape is what must match before two results may be compared.
type hostShape struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
}

func currentHost() hostShape {
	return hostShape{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    hostWorkers(),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the last line of standard output.
type line struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// record is one saved result.
type record struct {
	Workload string                `json:"workload"`
	Seed     uint64                `json:"seed"`
	Trace    bool                  `json:"trace"`
	Seconds  int                   `json:"seconds"`
	Host     hostShape             `json:"host"`
	Result   line                  `json:"result"`
	Detail   map[string]jsonMetric `json:"detail,omitempty"`
}

func toMap(ms []metric) (map[string]jsonMetric, error) {
	out := make(map[string]jsonMetric, len(ms))
	for _, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		if _, dup := out[m.Name]; dup {
			return nil, fmt.Errorf("metric %s reported twice", m.Name)
		}
		out[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	return out, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	name := flag.String("workload", "", "workload name from workloads.json, or all")
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench", "results"), "directory result records are written to")
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, name string, seed uint64, seconds int, trace bool, outDir string) error {
	if seconds < 1 {
		return fmt.Errorf("need -seconds >= 1, got %d", seconds)
	}
	var names []string
	if name == "all" {
		all, err := loadWorkloads(workloadsJSON)
		if err != nil {
			return err
		}
		for _, wl := range all {
			names = append(names, wl.Name)
		}
	} else {
		names = []string{name}
	}
	host := currentHost()
	fmt.Fprintf(w, "host: nproc=%d gomaxprocs=%d workers=%d %s %s cpu=%q\n",
		host.NProc, host.GOMAXPROCS, host.Workers, host.GoVersion, host.GOARCH, host.CPUModel)
	total := line{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, n := range names {
		wl, err := findWorkload(n)
		if err != nil {
			return err
		}
		budget := time.Duration(seconds) * time.Second
		var o *outcome
		if wl.Sim != nil {
			o, err = runSim(wl, seed, budget, trace)
		} else {
			o, err = runServeMix(wl, seed, budget, trace)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		res, err := report(w, wl.Name, seed, seconds, trace, host, o, outDir)
		if err != nil {
			return err
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = n + "." + k
			}
			total.Metrics[k] = v
		}
	}
	b, err := json.Marshal(total)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// report prints one workload's metrics and saves its record.
func report(w io.Writer, name string, seed uint64, seconds int, trace bool, host hostShape, o *outcome, outDir string) (line, error) {
	if o.attempted < 1 {
		return line{}, errors.New("no operation was checked")
	}
	res := line{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed}
	var err error
	if res.Metrics, err = toMap(o.metrics); err != nil {
		return line{}, err
	}
	detail, err := toMap(o.detail)
	if err != nil {
		return line{}, err
	}
	fmt.Fprintf(w, "workload %s seed=%d seconds=%d trace=%t: %d checked, %d failed (error rate %.4g)\n",
		name, seed, seconds, trace, o.attempted, o.failed, ratio(float64(o.failed), float64(o.attempted)))
	for _, n := range o.notes {
		fmt.Fprintf(w, "  FAIL %s\n", n)
	}
	for _, m := range o.metrics {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range o.detail {
		fmt.Fprintf(w, "  (detail) %-25s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	rec := record{Workload: name, Seed: seed, Trace: trace, Seconds: seconds, Host: host, Result: res, Detail: detail}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return line{}, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return line{}, err
	}
	kind := "e2e"
	if trace {
		kind = "trace"
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-%s.json", name, seed, kind))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return line{}, err
	}
	return res, nil
}

// compare prints the relative change of every metric between two
// records, refusing records from different host shapes or workloads.
func compare(w io.Writer, args []string) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare BASE.json NEW.json")
	}
	var recs [2]record
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := recs[0], recs[1]
	if a.Host != b.Host {
		return fmt.Errorf("refusing to compare different host shapes:\n  %+v\n  %+v", a.Host, b.Host)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace || a.Seconds != b.Seconds {
		return fmt.Errorf("refusing to compare %s (trace=%t, %ds) with %s (trace=%t, %ds)",
			a.Workload, a.Trace, a.Seconds, b.Workload, b.Trace, b.Seconds)
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		x, y := a.Result.Metrics[n], b.Result.Metrics[n]
		fmt.Fprintf(w, "%-34s %14.6g %14.6g %+8.2f%% %s\n", n, x.Value, y.Value, 100*(ratio(y.Value, x.Value)-1), x.Unit)
	}
	return nil
}
