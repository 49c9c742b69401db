// Command perfbench is the repository's end-to-end and per-layer benchmark
// for DPRLE: the Figure 12 defects, the pathological warp/secure defect,
// the dprled HTTP service under open-loop load, and the dprlelint suite
// over a generated Go module. See README.md for the workloads, the
// metrics and how to run it.
//
//	perfbench --workload fig12 --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result: one JSON object with
// the keys correct, attempted, failed and metrics. The line before it is
// the full report, naming every measured metric with its unit, plus host
// metadata.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// outcome is what one timed phase of a workload measured.
type outcome struct {
	Attempted, Failed int
	// Ops holds the wall time in ms of each unit of work: a sweep, an
	// analysis, a request, a lint pass.
	Ops []float64
	// CPU holds the process CPU time in ms of each unit of work, for the
	// closed-loop workloads, which run one unit at a time.
	CPU []float64
	// CPUPerOp is the process CPU time in ms per unit of work: the
	// windowed median of CPU, or for the service the timed phase's CPU
	// time over its requests. The benchmark gates on CPU time rather than
	// wall time because CPU steal on a shared host moves wall time by more
	// than its bounds, and the kernel leaves steal out of CPU time.
	CPUPerOp float64
	// Goodput is operations answered correctly per second: per second of
	// CPU time for the closed-loop workloads, and for the service per
	// second of wall time, counting only responses within its latency
	// limit.
	Goodput float64
	// Named holds workload-specific metrics under their report names.
	Named map[string]float64
	// Layer holds per-layer counts and ratios (traced runs).
	Layer map[string]float64
}

// errInvalid marks a run that did not produce a measurement, such as an
// open loop whose generator fell behind its schedule.
var errInvalid = errors.New("invalid run")

// bench is a set-up workload.
type bench interface {
	// measure runs the workload for at least d (and at least the
	// workload's minimum sample count) and checks every answer.
	measure(d time.Duration, tr *Tracer) (*outcome, error)
	// layers runs the traced-only calls that attribute work to layers
	// outside the timed loop (constant determinization, direct solves),
	// recording spans on tr and counts in the returned map.
	layers(tr *Tracer) (*outcome, error)
	close()
}

type workload struct {
	name  string
	setup func(seed int64, outDir string) (bench, error)
}

func workloads() []workload {
	return []workload{
		{"fig12", setupFig12},
		{"secure", setupSecure},
		{"serve_lo", func(seed int64, _ string) (bench, error) { return setupServe(seed, rateLo, "serve.lo") }},
		{"serve_hi", func(seed int64, _ string) (bench, error) { return setupServe(seed, rateHi, "serve.hi") }},
		{"lint", setupLint},
	}
}

// setupRounds is how many times a run sets its workload up; setup_s is
// their median.
const setupRounds = 5

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	manifest string
	outDir   string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload name, or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "input generation seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "timed phase length in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer run")
	fs.StringVar(&cfg.manifest, "manifest", "BENCHMARK.json", "benchmark manifest naming the reported metrics")
	fs.StringVar(&cfg.outDir, "out", ".bench_build/perfbench", "directory for span files")
	capSeconds := fs.Int("capacity", 0, "measure the serve mix's closed-loop capacity for this many seconds, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *capSeconds > 0 {
		rps, err := capacity(cfg.seed, time.Duration(*capSeconds)*time.Second)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: capacity: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "serve mix capacity: %.0f req/s with %d clients\n", rps, clientCount())
		return 0
	}
	cfg.trace = traceFlag == 1
	if (traceFlag != 0 && traceFlag != 1) || cfg.seconds < 1 || cfg.workload == "" {
		fmt.Fprintln(stderr, "perfbench: need --workload, --seconds >= 1 and --trace 0|1")
		return 2
	}
	man, err := readManifest(cfg.manifest)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var selected []workload
	for _, w := range workloads() {
		if cfg.workload == "all" || cfg.workload == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	code := 0
	for _, w := range selected {
		ok, err := runWorkload(w, cfg, man, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if !ok {
			code = 3
		}
	}
	return code
}

// runWorkload sets the workload up, measures it, and prints its report and
// result lines. It reports whether every answer was correct.
func runWorkload(w workload, cfg config, man *manifest, stdout io.Writer) (bool, error) {
	var setups []float64
	var b bench
	for i := 0; i < setupRounds; i++ {
		if b != nil {
			b.close()
		}
		start := time.Now()
		var err error
		b, err = w.setup(cfg.seed, cfg.outDir)
		if err != nil {
			return false, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer b.close()
	d := time.Duration(cfg.seconds) * time.Second

	// all holds every metric measured, under its report name.
	all := map[string]float64{"setup_s": quantile(setups, 0.5)}
	heap := startHeapSampler()
	base, err := b.measure(d, nil)
	if err != nil {
		return false, err
	}
	all["heap.highest_mb"], all["peak_heap_mb"] = heap.Stop(len(base.Ops))
	attempted, failed := base.Attempted, base.Failed
	maps.Copy(all, base.Named)
	all["cpu_ms_per_op"] = base.CPUPerOp
	all["goodput_per_s"] = base.Goodput
	if cfg.trace {
		tr := newTracer()
		traced, err := b.measure(d, tr)
		if err != nil {
			return false, err
		}
		extra, err := b.layers(tr)
		if err != nil {
			return false, err
		}
		attempted += traced.Attempted + extra.Attempted
		failed += traced.Failed + extra.Failed
		maps.Copy(all, traced.Layer)
		maps.Copy(all, extra.Layer)
		for name, dur := range LayerTimes(tr.Spans()) {
			if strings.Contains(name, ".") {
				all[name+"_ms"] = ms(dur)
			}
		}
		all["trace.overhead_ratio"] = quantile(traced.Ops, 0.5) / quantile(base.Ops, 0.5)
		if err := tr.WriteFile(traceFile(cfg.outDir, w.name, cfg.seed)); err != nil {
			return false, fmt.Errorf("writing spans: %w", err)
		}
	}
	if attempted < 1 {
		return false, errors.New("no operation attempted")
	}
	all["failed_ratio"] = float64(failed) / float64(attempted)

	want := man.EndToEnd
	if cfg.trace {
		want = man.PerLayer
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]valueUnit{}}
	for _, m := range want {
		v, ok := all[m.Name]
		if !ok && !cfg.trace {
			return false, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		// A per-layer metric this workload never reaches reads 0: no
		// span of that layer was recorded.
		res.Metrics[m.Name] = valueUnit{Value: v, Unit: m.Unit}
	}
	rep := report{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host: host(), Metrics: map[string]valueUnit{},
	}
	for k, v := range all {
		rep.Metrics[k] = valueUnit{Value: v, Unit: unitOf(k)}
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rep); err != nil {
		return false, err
	}
	if err := enc.Encode(res); err != nil {
		return false, err
	}
	return res.Correct, nil
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type report struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Seconds  int                  `json:"seconds"`
	Trace    bool                 `json:"trace"`
	Host     hostInfo             `json:"host"`
	Metrics  map[string]valueUnit `json:"report_metrics"`
}

// unitOf derives a report metric's unit from its name's suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms") || strings.Contains(name, "_ms."):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_rps") || strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "ratio"):
		return "ratio"
	case strings.HasSuffix(name, ".bytes"):
		return "bytes"
	}
	return "count"
}

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", filepath.Base(path), err)
	}
	if len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		return nil, fmt.Errorf("%s names no metrics", filepath.Base(path))
	}
	return &m, nil
}
