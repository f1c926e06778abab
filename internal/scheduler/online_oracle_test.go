package scheduler

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/core"
	"delaystage/internal/dag"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// simRunWhatIf is the from-scratch reference objective: one independent
// sim.Run of the committed runs plus the newcomer per call, Σ JCT summed in
// run order — what the planner computed before it shared core's memoized,
// snapshot-forking evaluator. No memo, no forks.
type simRunWhatIf struct {
	opt       sim.Options
	job       *workload.Job
	arrival   float64
	committed []sim.JobRun
}

func (r *simRunWhatIf) Total(delays map[dag.StageID]float64) (float64, error) {
	runs := append(append([]sim.JobRun(nil), r.committed...),
		sim.JobRun{Job: r.job, Arrival: r.arrival, Delays: delays})
	res, err := sim.Run(r.opt, runs)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for i := range runs {
		total += res.JCT(i)
	}
	return total, nil
}

func (r *simRunWhatIf) BeginScan(dag.StageID) {}
func (r *simRunWhatIf) EndScan()              {}
func (r *simRunWhatIf) Stats() core.EvalStats { return core.EvalStats{} }

// reference builds the from-scratch objective p's Add would otherwise get
// from core.
func reference(p *OnlinePlanner, job *workload.Job, arrival float64, committed []sim.JobRun) *simRunWhatIf {
	return &simRunWhatIf{
		opt: sim.Options{Cluster: p.coarse, TrackNode: -1, FairByJob: p.opt.FairByJob},
		job: job, arrival: arrival, committed: append([]sim.JobRun(nil), committed...),
	}
}

// checkedWhatIf answers from core's evaluator and fails the test unless
// every answer equals the reference's bit for bit.
type checkedWhatIf struct {
	whatIf
	ref    *simRunWhatIf
	t      *testing.T
	checks *int
}

func (c checkedWhatIf) Total(delays map[dag.StageID]float64) (float64, error) {
	got, err := c.whatIf.Total(delays)
	if err != nil {
		return 0, err
	}
	want, err := c.ref.Total(delays)
	if err != nil {
		return 0, err
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		c.t.Fatalf("delays %v: evaluator Σ JCT %v != independent sim.Run %v", delays, got, want)
	}
	*c.checks++
	return got, nil
}

// oracleJobs are the gallery and paper DAG constructors.
var oracleJobs = []func(*cluster.Cluster, float64) *workload.Job{
	workload.PageRank, workload.SQLJoin, workload.ETL, workload.ALS,
	workload.ConnectedComponents, workload.CosineSimilarity, workload.LDA, workload.TriangleCount,
}

// TestOnlineWhatIfOracle is the randomized oracle for online evaluation.
// Each case commits 0–5 gallery/paper runs at random arrivals (some with
// random delays), then plans a newcomer. Every objective value the
// planner asks for must equal Σ JCT of an independent sim.Run bit for bit,
// and the plans must be the ones a planner scoring with sim.Run alone
// makes — with FairByJob on and off.
func TestOnlineWhatIfOracle(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	checks, forked, hits := 0, 0, 0
	for _, fair := range []bool{false, true} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			draw := func() *workload.Job {
				return oracleJobs[rng.Intn(len(oracleJobs))](c, 0.1+0.3*rng.Float64())
			}
			opt := OnlineOptions{Cluster: c, FairByJob: fair, MaxCandidates: 8}
			p, err := NewOnlinePlanner(opt)
			if err != nil {
				t.Fatal(err)
			}
			var jobs []*workload.Job
			var arrivals []float64
			at := 0.0
			for i, n := 0, rng.Intn(6); i < n; i++ {
				job := draw()
				var delays map[dag.StageID]float64
				if rng.Intn(2) == 0 {
					delays = map[dag.StageID]float64{}
					for _, id := range job.Graph.Stages() {
						if rng.Intn(3) == 0 {
							delays[id] = 20 * rng.Float64()
						}
					}
				}
				if _, err := p.Commit(job, at, delays); err != nil {
					t.Fatal(err)
				}
				jobs, arrivals = append(jobs, job), append(arrivals, at)
				at += 100 * rng.Float64()
			}
			newcomer := draw()
			p.whatIf = func(job *workload.Job, arrival float64, committed []sim.JobRun) whatIf {
				return checkedWhatIf{
					whatIf: core.NewWhatIf(c, job, arrival, committed, fair),
					ref:    reference(p, job, arrival, committed),
					t:      t, checks: &checks,
				}
			}
			if _, err := p.Add(newcomer, at); err != nil {
				t.Fatal(err)
			}
			a := p.LastAudit()
			if got := a.CacheHits + a.ForkedEvals + a.FullEvals; got != a.Prune.Exact {
				t.Fatalf("fair=%v seed %d: breakdown %d+%d+%d != exact %d",
					fair, seed, a.CacheHits, a.ForkedEvals, a.FullEvals, a.Prune.Exact)
			}
			forked += a.ForkedEvals
			hits += a.CacheHits

			// Plans: PlanOnline over the whole stream (every job planned, not
			// committed as drawn) against the sim.Run-scoring reference.
			jobs, arrivals = append(jobs, newcomer), append(arrivals, at)
			got, err := PlanOnline(opt, jobs, arrivals)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewOnlinePlanner(opt)
			if err != nil {
				t.Fatal(err)
			}
			ref.whatIf = func(job *workload.Job, arrival float64, committed []sim.JobRun) whatIf {
				return reference(ref, job, arrival, committed)
			}
			for i := range jobs {
				if _, err := ref.Add(jobs[i], arrivals[i]); err != nil {
					t.Fatal(err)
				}
			}
			want := ref.Committed()
			for i := range want {
				if !reflect.DeepEqual(got[i].Delays, want[i].Delays) {
					t.Fatalf("fair=%v seed %d job %d: plan %v != sim.Run reference %v",
						fair, seed, i, got[i].Delays, want[i].Delays)
				}
			}
		}
	}
	if forked == 0 || hits == 0 {
		t.Fatalf("oracle never exercised a fork (%d) or a memo hit (%d)", forked, hits)
	}
	t.Logf("%d evaluator answers matched sim.Run bit for bit (%d forked, %d memo hits)", checks, forked, hits)
}
