package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/airspace"
	"repro/internal/platform"
	"repro/internal/radar"
)

// timedPlatform times calls into the platform boundary. In profile
// mode it also records a CPU profile around each DetectResolve call,
// so samples taken then belong to Tasks 2-3 whichever goroutine took
// them; the profiler's own start and stop time is kept apart in
// overhead.
type timedPlatform struct {
	platform.Platform
	profile  bool
	track    []time.Duration
	detect   []time.Duration
	overhead time.Duration
	samples  cpuSplit
	profErr  error
}

func (t *timedPlatform) Track(w *airspace.World, f *radar.Frame) time.Duration {
	start := time.Now()
	d := t.Platform.Track(w, f)
	t.track = append(t.track, time.Since(start))
	return d
}

func (t *timedPlatform) DetectResolve(w *airspace.World) time.Duration {
	var buf bytes.Buffer
	begin := time.Now()
	profiling := t.profile && pprof.StartCPUProfile(&buf) == nil
	start := time.Now()
	d := t.Platform.DetectResolve(w)
	end := time.Now()
	t.detect = append(t.detect, end.Sub(start))
	if profiling {
		pprof.StopCPUProfile()
		if err := t.samples.add(buf.Bytes()); err != nil && t.profErr == nil {
			t.profErr = err
		}
	}
	t.overhead += start.Sub(begin) + time.Since(end)
	return d
}

// cpuSplit attributes CPU profile samples to layers by package path.
// A sample belongs to the package of its leaf-most frame inside the
// repro module, so runtime helpers count for the code that called
// them; samples with no such frame (GC workers, the scheduler) are
// runtime. samples counts the profile's samples, which bounds how
// precise the split is.
type cpuSplit struct {
	broadphase, executor, runtime float64
	samples                       int64
}

func (c *cpuSplit) total() float64 { return c.broadphase + c.executor + c.runtime }

const broadphasePkg = "repro/internal/broadphase"

func (c *cpuSplit) add(gz []byte) error {
	stacks, err := profileStacks(gz)
	if err != nil {
		return err
	}
	for _, s := range stacks {
		c.samples += s.count
		switch pkg := leafPackage(s.funcs, "repro/"); {
		case pkg == "":
			c.runtime += s.value
		case pkg == broadphasePkg:
			c.broadphase += s.value
		default:
			c.executor += s.value
		}
	}
	return nil
}

// leafPackage returns the package path of the first function (leaf
// first) whose package starts with prefix, or "".
func leafPackage(funcs []string, prefix string) string {
	for _, fn := range funcs {
		if pkg := packageOf(fn); strings.HasPrefix(pkg, prefix) {
			return pkg
		}
	}
	return ""
}

// packageOf returns the import path of a fully qualified function name
// such as "repro/internal/broadphase.(*Sweep).walk.func1".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

type stack struct {
	funcs []string // leaf first, inlined frames expanded
	value float64  // CPU nanoseconds (sample count if the profile has no time)
	count int64    // samples
}

// profileStacks decodes the gzipped protobuf a CPU profile is written
// as, keeping only what attribution needs: each sample's value and the
// function names of its stack.
func profileStacks(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		strs      []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		valueKind int
	)
	err = walkFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 1: // SampleType; CPU profiles list samples/count then cpu/nanoseconds.
			valueKind++
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stack{value: float64(s.values[len(s.values)-1]), count: s.values[0]}
		if valueKind < 2 {
			st.value = float64(s.values[0])
		}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx >= 0 && int(idx) < len(strs) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// walkFields calls f for every field of a protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func walkFields(msg []byte, f func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errBadProfile
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errBadProfile
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errBadProfile
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errBadProfile
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errBadProfile
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return errBadProfile
		}
		if err := f(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

var errBadProfile = errors.New("profile: malformed protobuf")

// appendVarints appends a repeated integer field given either unpacked
// (one value v) or packed (payload b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// runtimeCounters reads the Go runtime's allocation and CPU-class
// counters; the difference of two readings covers the code between.
type runtimeCounters struct {
	allocObjects, allocBytes float64
	cpuTotal, cpuIdle, cpuGC float64
	cpuScavenge              float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/scavenge/total:cpu-seconds",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeCounters{
		allocObjects: v(0), allocBytes: v(1),
		cpuTotal: v(2), cpuIdle: v(3), cpuGC: v(4), cpuScavenge: v(5),
	}
}

// heapSampler samples the live heap, as the garbage collector last
// measured it, at operation boundaries. Its 90th percentile is the
// high-water mark a run keeps returning to; the single largest reading
// depends on which collection caught a run at its largest.
type heapSampler struct {
	s  [1]metrics.Sample
	mb []float64
}

func newHeapSampler() *heapSampler {
	h := &heapSampler{}
	h.s[0].Name = "/gc/heap/live:bytes"
	return h
}

func (h *heapSampler) sample() {
	metrics.Read(h.s[:])
	h.mb = append(h.mb, float64(h.s[0].Value.Uint64())/(1<<20))
}
