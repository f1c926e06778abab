package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"delaystage/internal/cluster"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// smokeSizes runs every workload in a few seconds.
var smokeSizes = sizes{replay: 12, model: 40, steady: 12, sessions: 2, warm: 2, setupReps: 2}

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func smokeRun(t *testing.T, workload string, traced bool) *report {
	t.Helper()
	rep, err := run(options{
		workload: workload, seed: 3, seconds: 0.05, trace: traced,
		sizes: smokeSizes, outDir: t.TempDir(),
	}, time.Now())
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d problems=%v",
			workload, rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
	}
	return rep
}

// checkMetrics asserts that the run printed exactly the named metrics,
// each with its unit and a finite value.
func checkMetrics(t *testing.T, workload string, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", workload, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: metric %s unit %q, want %q", workload, w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", workload, w.Name, m.Value)
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(s.Workloads), len(workloadNames))
	}
	for i, w := range s.Workloads {
		if w.Name != workloadNames[i] {
			t.Fatalf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
		}
		t.Run(w.Name, func(t *testing.T) {
			plain := smokeRun(t, w.Name, false)
			checkMetrics(t, w.Name, plain.Metrics, s.EndToEnd)
			if plain.Passes < 3 {
				t.Errorf("%d passes, want at least 3", plain.Passes)
			}
			if v := plain.Metrics["ok_share"].Value; v != 1 {
				t.Errorf("ok_share %v, want 1", v)
			}
			again := smokeRun(t, w.Name, false)
			if again.Digest != plain.Digest {
				t.Errorf("digest %s, then %s on the same seed", plain.Digest, again.Digest)
			}
			if a, b := plain.Metrics["jct_pct_of_stock"].Value, again.Metrics["jct_pct_of_stock"].Value; a != b {
				t.Errorf("jct_pct_of_stock %v, then %v on the same seed", a, b)
			}

			traced := smokeRun(t, w.Name, true)
			checkMetrics(t, w.Name, traced.Metrics, s.PerLayer)
			if traced.Digest != plain.Digest {
				t.Errorf("traced digest %s, untraced %s", traced.Digest, plain.Digest)
			}
			st, err := os.Stat(traced.Spans)
			if err != nil || st.Size() == 0 {
				t.Fatalf("span file %q: %v (size %d)", traced.Spans, err, st.Size())
			}
		})
	}
}

// fakeWorkload passes its checks, except that it records a problem on the
// passes marked in problem and changes the digest on those in digest.
type fakeWorkload struct {
	passes  int
	problem map[int]bool
	digest  map[int]bool
}

func (f *fakeWorkload) setup() error { return nil }
func (f *fakeWorkload) close()       {}
func (f *fakeWorkload) pass(*tracer) (*passResult, error) {
	p := newPassResult()
	p.jobs, p.ok, p.timed, p.latMS = 1, 1, time.Millisecond, []float64{1}
	p.stockJCT, p.planJCT = 2, 1
	if f.problem[f.passes] {
		p.ok = 0
		p.problem("job 0: planned JCT exceeds stock")
	}
	if f.digest[f.passes] {
		p.digestFloat(1)
	}
	f.passes++
	return p, nil
}

func TestFailedCheckFailsRun(t *testing.T) {
	o := options{workload: "fake", seconds: 0.001, sizes: smokeSizes, outDir: t.TempDir()}
	for _, f := range []*fakeWorkload{
		{problem: map[int]bool{2: true}},
		{digest: map[int]bool{1: true}},
	} {
		rep, err := runWorkload(o, f, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Correct || len(rep.Problems) == 0 {
			t.Errorf("run passed with a failed check: %+v", rep)
		}
	}
	rep, err := runWorkload(o, &fakeWorkload{}, time.Now())
	if err != nil || !rep.Correct || rep.Metrics["jct_pct_of_stock"].Value != 50 {
		t.Errorf("clean fake run: %v %+v", err, rep)
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: noSpan, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60}, // overlaps its sibling
		{ID: 3, Parent: 2, Start: 35, End: 45},
	}}
	spans := tr.finish()
	for i, want := range []int64{50, 30, 20, 10} {
		if spans[i].Self != want {
			t.Errorf("span %d self %d, want %d", i, spans[i].Self, want)
		}
	}
}

func TestMedianPass(t *testing.T) {
	passes := []*passResult{
		{jobs: 2, ok: 2, timed: 31 * time.Millisecond, latMS: []float64{10, 20}},
		{jobs: 2, ok: 2, timed: 1030 * time.Millisecond, latMS: []float64{1000, 20}}, // a stall on job 0
		{jobs: 2, ok: 2, timed: 33 * time.Millisecond, latMS: []float64{12, 20}},
	}
	lat, passS, rate := medianPass(passes)
	if lat[0] != 12 || lat[1] != 20 {
		t.Errorf("latencies %v, want [12 20]", lat)
	}
	if math.Abs(passS-0.033) > 1e-12 || math.Abs(rate-2/0.033) > 1e-9 {
		t.Errorf("pass %v s at %v jobs/s, want 0.033 s at %v", passS, rate, 2/0.033)
	}
}

func TestUndisturbed(t *testing.T) {
	passes := []*passResult{{steal: 0}, {steal: 0.2}, {steal: 0.01}, {steal: 0.05}}
	if got := undisturbed(passes, 3); len(got) != 3 || got[1] != passes[2] {
		t.Errorf("undisturbed kept %d passes, want the 3 with steal ≤ %v", len(got), maxSteal)
	}
	if got := undisturbed(passes, 4); len(got) != 4 {
		t.Errorf("with too few clean passes undisturbed kept %d, want all 4", len(got))
	}
}

func TestBusyPeriods(t *testing.T) {
	c := cluster.NewM4LargeCluster(scheddNodes)
	w := &scheddWorkload{cluster: c}
	job := workload.ETL(c, 0.5)
	runs := []sim.JobRun{{Job: job, Arrival: 0}, {Job: job, Arrival: 1}, {Job: job, Arrival: 1e6}}
	simulate := func(r []sim.JobRun) (*sim.Result, error) {
		return sim.Run(sim.Options{Cluster: sim.Coarsen(c), TrackNode: -1, FairByJob: true}, r)
	}
	ids := []string{"j-0", "j-1", "j-2"}
	grouped := func(epochs ...int) map[string]jobStatus {
		m := map[string]jobStatus{}
		for k, e := range epochs {
			m[ids[k]] = jobStatus{ID: ids[k], Epoch: e}
		}
		return m
	}

	out := newPassResult()
	jct, err := w.busyPeriods(out, ids, grouped(0, 0, 1), runs, simulate)
	if err != nil || out.nProblems != 0 {
		t.Fatalf("true busy periods: err %v, problems %v", err, out.problems)
	}
	whole, err := simulate(runs)
	if err != nil {
		t.Fatal(err)
	}
	for k := range runs {
		if math.Abs(jct[k]-whole.JCT(k)) > continuousTolerance {
			t.Errorf("job %d: busy-period JCT %v, continuous %v", k, jct[k], whole.JCT(k))
		}
	}

	for _, epochs := range [][]int{{0, 1, 1}, {0, 0, 0}} {
		out := newPassResult()
		if _, err := w.busyPeriods(out, ids, grouped(epochs...), runs, simulate); err != nil || out.nProblems == 0 {
			t.Errorf("epochs %v: err %v, no problem reported", epochs, err)
		}
	}
	if _, err := w.busyPeriods(newPassResult(), ids, grouped(1, 0, 0), runs, simulate); err == nil {
		t.Error("epochs out of submission order accepted")
	}
}
