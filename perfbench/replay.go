package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/dag"
	"delaystage/internal/sim"
	"delaystage/internal/trace"
)

// replayWorkload is the Sec. 5.3 / Fig. 14 trace replay: every synthetic
// Alibaba-marginal job runs on its own 2-machine trace-cluster slice, is
// planned by Alg. 1, and is simulated once planned and once stock.
//
// With model set it is the `tracegen | replay -model-eval` recipe instead:
// set-up writes the trace as a batch_task CSV, and every pass parses that
// file, converts the jobs and plans them with the closed-form model
// evaluator.
type replayWorkload struct {
	model bool
	jobs  int
	warm  int
	seed  int64
	csv   string // model only: the batch_task CSV written at set-up

	tr     *trace.Trace       // exact only: the generated trace
	slices []*cluster.Cluster // exact only: one coarsened slice per job
}

// slicesFor draws the per-job cluster slices, each with its own NIC
// bandwidths, from a seed-derived stream in job order.
func slicesFor(n int, seed int64) []*cluster.Cluster {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*cluster.Cluster, n)
	for i := range out {
		out[i] = sim.Coarsen(cluster.NewTraceCluster(2, 4, rng))
	}
	return out
}

func (w *replayWorkload) setup() error {
	tr := sampleTrace(w.jobs, w.seed)
	slices := slicesFor(len(tr.Jobs), w.seed)
	if w.model {
		if err := writeCSV(w.csv, tr); err != nil {
			return err
		}
	} else {
		w.tr, w.slices = tr, slices
	}
	// Warm up on a few mid-sized jobs; their results are thrown away.
	out := newPassResult()
	for _, i := range warmIndices(tr, w.warm) {
		w.job(nil, out, &tr.Jobs[i], slices[i], i)
	}
	if len(out.problems) > 0 {
		return fmt.Errorf("warm-up: %s", out.problems[0])
	}
	return nil
}

func writeCSV(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := tr.WriteCSV(bw); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

func (w *replayWorkload) close() {
	if w.model {
		os.Remove(w.csv) // a temporary input; a leftover file changes no result
	}
}

func (w *replayWorkload) pass(t *tracer) (*passResult, error) {
	out := newPassResult()
	start := time.Now()
	tr, slices := w.tr, w.slices
	if w.model {
		f, err := os.Open(w.csv)
		if err != nil {
			return nil, err
		}
		id := t.begin(spanParse, noSpan)
		tr, err = trace.Parse(bufio.NewReader(f))
		t.end(id)
		f.Close()
		if err != nil {
			return nil, err
		}
		slices = slicesFor(len(tr.Jobs), w.seed)
	}
	for i := range tr.Jobs {
		t0 := time.Now()
		w.job(t, out, &tr.Jobs[i], slices[i], i)
		out.latMS = append(out.latMS, msSince(t0))
	}
	out.timed = time.Since(start)
	return out, nil
}

// job converts, plans and simulates job i (planned and stock) and folds
// the outcome into out.
func (w *replayWorkload) job(t *tracer, out *passResult, tj *trace.Job, slice *cluster.Cluster, i int) {
	out.jobs++
	fail := func(err error) { out.problem("job %d (%s): %v", i, tj.Name, err) }
	root := t.begin(spanJob, noSpan)
	defer t.end(root)

	id := t.begin(spanConvert, root)
	wl, err := tj.Workload(slice, trace.DefaultSplit, nil)
	t.end(id)
	if err != nil {
		fail(err)
		return
	}

	// Candidate caps follow the replays this workload reproduces: Fig. 14
	// for the exact evaluator, cmd/replay for the model evaluator.
	mc, big := 16, wl.Graph.Len() > 60
	switch {
	case w.model && big:
		mc = 6
	case w.model || big:
		mc = 10
	}
	id = t.begin(spanCompute, root)
	sched, err := core.Compute(core.Options{
		Cluster: slice, Order: core.Descending, Seed: w.seed + int64(i),
		MaxCandidates: mc, UseModelEvaluator: w.model, Parallelism: 1,
	}, wl)
	t.end(id)
	if err != nil {
		fail(err)
		return
	}

	simulate := func(delays map[dag.StageID]float64) (float64, error) {
		id := t.begin(spanSimRun, root)
		res, err := sim.Run(sim.Options{Cluster: slice, TrackNode: -1},
			[]sim.JobRun{{Job: wl, Delays: delays}})
		t.end(id)
		if err != nil {
			return 0, err
		}
		t.attr(id, attrEvents, float64(res.Events))
		out.count("sim.events", res.Events)
		if err := res.Failed(0); err != nil {
			return 0, err
		}
		return res.JCT(0), nil
	}
	planned, err := simulate(sched.Delays)
	if err != nil {
		fail(err)
		return
	}
	stock, err := simulate(nil)
	if err != nil {
		fail(err)
		return
	}

	out.count("core.evaluations", sched.Evaluations)
	out.count("core.exact_evals", sched.Prune.Exact)
	out.count("core.cache_hits", sched.CacheHits)
	out.count("core.forked_evals", sched.ForkedEvals)
	out.count("core.full_evals", sched.FullEvals)
	out.count("perfmodel.bounded", sched.Prune.Bounded)
	out.count("perfmodel.pruned", sched.Prune.Pruned)
	out.planJCT += planned
	out.stockJCT += stock
	out.digestJob(planned, sched.Delays)
	out.digestFloat(stock)
	if planned > stock {
		out.count("core.worse_than_stock", 1)
		if !w.model {
			// The exact evaluator's plan must never lose to stock; the
			// model evaluator's may, which the count above reports.
			fail(fmt.Errorf("planned JCT %.6f s exceeds stock %.6f s", planned, stock))
			return
		}
	}
	if math.IsNaN(planned) || math.IsNaN(stock) {
		fail(fmt.Errorf("NaN JCT"))
		return
	}
	out.ok++
}
