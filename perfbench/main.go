// Command perfbench is the repository's benchmark. One run measures one
// workload against the DelayStage planner, fluid simulator and scheduling
// service, checks the outputs, and prints its metrics as the last line of
// standard output:
//
//	{"correct":true,"attempted":…,"failed":0,"metrics":{"jobs_per_s":{"value":…,"unit":"jobs/s"},…}}
//
// Build and run it from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload trace-replay --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that reports the per-layer metrics from spans the benchmark records
// around its own calls into each layer, and writes the spans to
// .bench_out/. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sizes are the per-pass job counts of every workload.
type sizes struct {
	replay, model    int // jobs a pass
	steady, sessions int // schedd-steady: jobs a session, sessions a pass
	warm             int // jobs run untimed before timing
	setupReps        int // set-ups per run; setup_s is their median
}

var fullSizes = sizes{replay: 1000, model: 5000, steady: 1000, sessions: 2, warm: 8, setupReps: 5}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"trace-replay", "trace-replay-model", "schedd-steady"}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	outDir   string
}

// benchWorkload is one workload: set-up builds the seeded inputs (and may
// run several times, each replacing the last), a pass runs the fixed job
// set once, and close releases what set-up made.
type benchWorkload interface {
	setup() error
	pass(t *tracer) (*passResult, error)
	close()
}

func newWorkload(o options) (benchWorkload, error) {
	s := o.sizes
	switch o.workload {
	case "trace-replay":
		return &replayWorkload{jobs: s.replay, warm: s.warm, seed: o.seed}, nil
	case "trace-replay-model":
		csv := filepath.Join(o.outDir, fmt.Sprintf("trace-seed%d-%d.csv", o.seed, os.Getpid()))
		return &replayWorkload{model: true, jobs: s.model, warm: s.warm, seed: o.seed, csv: csv}, nil
	case "schedd-steady":
		return &scheddWorkload{jobs: s.steady, sessions: s.sessions, warm: s.warm, seed: o.seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run learned; result is its summary.
type report struct {
	result
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Passes     int              `json:"passes"`
	SetAside   int              `json:"passes_set_aside"` // untraced passes disturbed by steal
	Digest     string           `json:"digest"`
	FloatDiffs int              `json:"continuous_float_diffs"` // schedd: JCTs off one continuous run by float noise
	Problems   []string         `json:"problems,omitempty"`
	Env        map[string]any   `json:"env"`
	Layers     map[string]layer `json:"layers,omitempty"`
	Spans      string           `json:"span_file,omitempty"`
}

func main() {
	start := time.Now()
	o := options{sizes: fullSizes, outDir: ".bench_out"}
	var traced int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed for the workload's inputs")
	flag.Float64Var(&o.seconds, "seconds", 25, "host seconds of timed work (whole passes, at least three)")
	flag.IntVar(&traced, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.outDir, "out", o.outDir, "directory for span files and temporary inputs")
	flag.Parse()
	o.trace = traced == 1
	if flag.NArg() > 0 || (traced != 0 && traced != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	rep, err := run(o, start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printReport(os.Stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		for _, p := range rep.Problems {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
		}
		os.Exit(1)
	}
}

// printReport writes the run's details on one line and its result on the
// last line.
func printReport(w io.Writer, rep *report) error {
	details, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	res, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", details, res)
	return err
}

// run runs the workload o names; see runWorkload.
func run(o options, processStart time.Time) (*report, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	w, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	return runWorkload(o, w, processStart)
}

// runWorkload sets w up, times whole passes over its job set for
// o.seconds, checks every pass, and reports. processStart is when the
// process began; the first set-up is timed from there.
func runWorkload(o options, w benchWorkload, processStart time.Time) (*report, error) {
	if runtime.NumCPU() > 2 {
		// Two Ps, whatever the machine: the numbers measure the program,
		// not how many cores the garbage collector and the HTTP server
		// may spread over.
		runtime.GOMAXPROCS(2)
	}
	defer w.close()

	var setups []float64
	for r := 0; r < o.sizes.setupReps; r++ {
		t0 := processStart
		if r > 0 {
			runtime.GC()
			t0 = time.Now()
		}
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Per-job medians need at least three passes; the traced run splits
	// its time between an untraced half, for the tracing overhead, and a
	// traced half.
	budget, minPasses := time.Duration(o.seconds*float64(time.Second)), 3
	if o.trace {
		budget, minPasses = budget/2, 1
	}
	plain, err := timedPasses(w, nil, budget, minPasses)
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: o.workload, Seed: o.seed, Env: env(),
		SetAside: len(plain) - len(undisturbed(plain, minPasses))}
	all := plain
	if o.trace {
		t := newTracer()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		tp, err := timedPasses(w, t, budget, minPasses)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m1)
		spans := t.finish()
		rep.Spans = filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", o.workload, o.seed))
		if err := writeSpans(rep.Spans, spans); err != nil {
			return nil, err
		}
		rep.Layers = layerTable(spans, len(tp))
		rep.Metrics = perLayer(spans, plain, tp, m0, m1)
		all = append(append([]*passResult(nil), plain...), tp...)
	} else {
		rep.Metrics = endToEnd(plain, setups)
	}

	rep.Passes = len(all)
	rep.Correct = true
	first := all[0].digest.Sum64()
	rep.Digest = fmt.Sprintf("%016x", first)
	rep.FloatDiffs = all[0].floatDiffs
	for i, p := range all {
		rep.Attempted += p.jobs
		rep.Failed += p.jobs - p.ok
		rep.Problems = append(rep.Problems, p.problems...)
		if p.nProblems > 0 || p.ok != p.jobs {
			rep.Correct = false
		}
		if d := p.digest.Sum64(); d != first {
			rep.Correct = false
			rep.Problems = append(rep.Problems, fmt.Sprintf("pass %d digest %016x differs from pass 0's %016x", i, d, first))
		}
	}
	return rep, nil
}

// maxSteal is the share of the host's CPU time a hypervisor may steal
// during a pass before the pass's timings are set aside. On a shared
// virtual machine, bursts of steal slow a whole run by tens of percent.
const maxSteal = 0.05

// timedPasses runs whole passes, collecting garbage before each, until
// their timed sections add up to the budget and at least minPasses ran
// undisturbed by steal — or, on a host that keeps stealing, until they add
// up to twice the budget.
func timedPasses(w benchWorkload, t *tracer, budget time.Duration, minPasses int) ([]*passResult, error) {
	var passes []*passResult
	var elapsed time.Duration
	for {
		clean := len(undisturbed(passes, 0))
		if len(passes) >= minPasses && elapsed >= budget && (clean >= minPasses || elapsed >= 2*budget) {
			return passes, nil
		}
		runtime.GC()
		steal0, total0 := cpuTicks()
		p, err := w.pass(t)
		if err != nil {
			return nil, err
		}
		steal1, total1 := cpuTicks()
		p.steal = ratio(float64(steal1-steal0), float64(total1-total0))
		passes = append(passes, p)
		elapsed += p.timed
	}
}

// undisturbed returns the passes during which the host stole at most
// maxSteal of the CPU time, or all passes when fewer than atLeast were.
func undisturbed(passes []*passResult, atLeast int) []*passResult {
	var out []*passResult
	for _, p := range passes {
		if p.steal <= maxSteal {
			out = append(out, p)
		}
	}
	if len(out) < atLeast {
		return passes
	}
	return out
}

// cpuTicks reads the machine's cumulative stolen and total CPU time, in
// clock ticks, from /proc/stat; zeros where it is unavailable.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// medianPass rebuilds one pass from medians over the passes, so a burst of
// load from elsewhere on the host moves no figure: job i's latency is the
// median of its latencies, and the pass time is their sum plus the median
// of the time each pass spent outside its jobs (trace-replay-model's
// parse). It returns the latencies (ms), the pass time (s) and the
// jobs per second of that pass.
func medianPass(passes []*passResult) (lat []float64, passS, jobsPerS float64) {
	lat = make([]float64, len(passes[0].latMS))
	col := make([]float64, len(passes))
	for i := range lat {
		for k, p := range passes {
			col[k] = p.latMS[i]
		}
		lat[i] = median(col)
	}
	var ok, jobs int
	for k, p := range passes {
		col[k] = p.timed.Seconds() - sum(p.latMS)/1e3
		ok += p.ok
		jobs += p.jobs
	}
	passS = sum(lat)/1e3 + median(col)
	return lat, passS, float64(len(lat)) * ratio(float64(ok), float64(jobs)) / passS
}

func endToEnd(passes []*passResult, setups []float64) map[string]metric {
	var ok, jobs int
	for _, p := range passes {
		ok += p.ok
		jobs += p.jobs
	}
	lat, _, rate := medianPass(undisturbed(passes, 3))
	return map[string]metric{
		"setup_s":          {median(setups), "s"},
		"jobs_per_s":       {rate, "jobs/s"},
		"latency_ms_p50":   {percentile(lat, 50), "ms"},
		"latency_ms_p90":   {percentile(lat, 90), "ms"},
		"jct_pct_of_stock": {100 * ratio(passes[0].planJCT, passes[0].stockJCT), "%"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
		"ok_share":         {ratio(float64(ok), float64(jobs)), "ratio"},
	}
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// env records what the numbers were measured on.
func env() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
