package sim

import (
	"math"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/workload"
)

func ref(n int) *cluster.Cluster { return cluster.NewM4LargeCluster(n) }

// singleStageJob builds a one-stage job with the given solo phase times.
func singleStageJob(c *cluster.Cluster, read, compute, write float64) *workload.Job {
	g := dag.New()
	g.MustAdd(dag.Stage{ID: 1, Name: "only"})
	j := &workload.Job{
		Name:  "single",
		Graph: g,
		Profiles: map[dag.StageID]workload.StageProfile{
			1: workload.FromPhases(c, workload.PhaseSpec{ReadSec: read, ComputeSec: compute, WriteSec: write}),
		},
	}
	if err := j.Validate(); err != nil {
		panic(err)
	}
	return j
}

// twoParallelJob builds two independent root stages with identical phases
// plus no children.
func twoParallelJob(c *cluster.Cluster, read, compute, write float64) *workload.Job {
	g := dag.New()
	g.MustAdd(dag.Stage{ID: 1})
	g.MustAdd(dag.Stage{ID: 2})
	p := workload.FromPhases(c, workload.PhaseSpec{ReadSec: read, ComputeSec: compute, WriteSec: write})
	j := &workload.Job{Name: "par2", Graph: g, Profiles: map[dag.StageID]workload.StageProfile{1: p, 2: p}}
	if err := j.Validate(); err != nil {
		panic(err)
	}
	return j
}

// chainJob builds parent → child with given phases each.
func chainJob(c *cluster.Cluster, read, compute, write float64, skew float64) *workload.Job {
	g := dag.New()
	g.MustAdd(dag.Stage{ID: 1})
	g.MustAdd(dag.Stage{ID: 2, Parents: []dag.StageID{1}})
	p := workload.FromPhases(c, workload.PhaseSpec{ReadSec: read, ComputeSec: compute, WriteSec: write, Skew: skew})
	j := &workload.Job{Name: "chain", Graph: g, Profiles: map[dag.StageID]workload.StageProfile{1: p, 2: p}}
	if err := j.Validate(); err != nil {
		panic(err)
	}
	return j
}

func mustRun(t *testing.T, opt Options, runs []JobRun) *Result {
	t.Helper()
	r, err := Run(opt, runs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r
}

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.3f, want %.3f ± %.2f", name, got, want, tol)
	}
}

func TestSoloStagePhaseTimes(t *testing.T) {
	c := ref(30)
	j := singleStageJob(c, 100, 150, 20)
	res := mustRun(t, Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: j}})
	tl := res.Timeline(0, 1)
	if tl == nil {
		t.Fatal("missing timeline")
	}
	approx(t, "read", tl.ReadEnd-tl.Start, 100, 0.5)
	approx(t, "compute", tl.ComputeEnd-tl.ReadEnd, 150, 0.5)
	approx(t, "write", tl.End-tl.ComputeEnd, 20, 0.5)
	approx(t, "JCT", res.JCT(0), 270, 1)
}

func TestTwoParallelStagesContend(t *testing.T) {
	c := ref(10)
	j := twoParallelJob(c, 100, 100, 10)
	// ContentionOverhead −1 = pure fluid sharing, so the arithmetic is exact.
	res := mustRun(t, Options{Cluster: c, TrackNode: -1, ContentionOverhead: -1}, []JobRun{{Job: j}})
	// Both stages read simultaneously at half bandwidth: reads take ~200 s.
	for _, sid := range []dag.StageID{1, 2} {
		tl := res.Timeline(0, sid)
		approx(t, "shared read", tl.ReadEnd-tl.Start, 200, 1)
		// Then both compute at half the executors: ~200 s.
		approx(t, "shared compute", tl.ComputeEnd-tl.ReadEnd, 200, 1)
	}
}

// With the default contention overhead α, two synchronized stages take
// strictly longer than the pure-fluid 2× — the efficiency loss DelayStage
// exploits.
func TestContentionOverheadSlowsSharing(t *testing.T) {
	c := ref(10)
	j := twoParallelJob(c, 100, 100, 10)
	pure := mustRun(t, Options{Cluster: c, TrackNode: -1, ContentionOverhead: -1}, []JobRun{{Job: j}})
	lossy := mustRun(t, Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: j}})
	if lossy.JCT(0) <= pure.JCT(0)+1 {
		t.Fatalf("contention overhead must slow sharing: pure %.1f, lossy %.1f",
			pure.JCT(0), lossy.JCT(0))
	}
	// Solo execution is unaffected by α.
	solo := singleStageJob(c, 100, 100, 10)
	a := mustRun(t, Options{Cluster: c, TrackNode: -1, ContentionOverhead: -1}, []JobRun{{Job: solo}})
	b := mustRun(t, Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: solo}})
	approx(t, "solo JCT", b.JCT(0), a.JCT(0), 0.5)
}

func TestDelayInterleavesResources(t *testing.T) {
	c := ref(10)
	j := twoParallelJob(c, 100, 100, 5)
	stock := mustRun(t, Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: j}})
	// Delay stage 2 by the read time of stage 1: stage 2 reads while stage
	// 1 computes — classic DelayStage interleaving.
	delayed := mustRun(t, Options{Cluster: c, TrackNode: -1},
		[]JobRun{{Job: j, Delays: map[dag.StageID]float64{2: 100}}})
	if delayed.JCT(0) >= stock.JCT(0)-1 {
		t.Fatalf("delaying should shorten JCT: stock %.1f, delayed %.1f",
			stock.JCT(0), delayed.JCT(0))
	}
	// Interleaving also lifts average utilization.
	if delayed.AvgCPUUtil <= stock.AvgCPUUtil {
		t.Errorf("CPU util should rise: stock %.3f delayed %.3f", stock.AvgCPUUtil, delayed.AvgCPUUtil)
	}
}

func TestDelayHonored(t *testing.T) {
	c := ref(5)
	j := singleStageJob(c, 10, 10, 1)
	res := mustRun(t, Options{Cluster: c, TrackNode: -1},
		[]JobRun{{Job: j, Delays: map[dag.StageID]float64{1: 42}}})
	tl := res.Timeline(0, 1)
	approx(t, "delay", tl.Start-tl.Ready, 42, 1e-3)
}

func TestChainDependency(t *testing.T) {
	c := ref(5)
	j := chainJob(c, 50, 60, 5, 0)
	res := mustRun(t, Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: j}})
	p, ch := res.Timeline(0, 1), res.Timeline(0, 2)
	if ch.Start < p.End-eps {
		t.Fatalf("child started at %.2f before parent ended at %.2f", ch.Start, p.End)
	}
	approx(t, "child ready", ch.Ready, p.End, 1e-3)
	approx(t, "JCT", res.JCT(0), 2*(50+60+5), 1)
}

func TestJobArrivalOffset(t *testing.T) {
	c := ref(5)
	j := singleStageJob(c, 10, 10, 1)
	res := mustRun(t, Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: j, Arrival: 100}})
	tl := res.Timeline(0, 1)
	approx(t, "arrival start", tl.Start, 100, 1e-3)
	approx(t, "JCT", res.JCT(0), 21, 0.5)
}

func TestMultiJobSharing(t *testing.T) {
	c := ref(10)
	j := singleStageJob(c, 100, 100, 10)
	res := mustRun(t, Options{Cluster: c, TrackNode: -1, ContentionOverhead: -1},
		[]JobRun{{Job: j}, {Job: j}})
	// Two identical jobs sharing everything: each phase takes 2× solo
	// under pure fluid sharing.
	for i := 0; i < 2; i++ {
		approx(t, "shared JCT", res.JCT(i), 2*(100+100+10), 2)
	}
}

func TestFairByJobMatchesEqualForSymmetricJobs(t *testing.T) {
	c := ref(10)
	j := singleStageJob(c, 50, 50, 5)
	a := mustRun(t, Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: j}, {Job: j}})
	b := mustRun(t, Options{Cluster: c, TrackNode: -1, FairByJob: true}, []JobRun{{Job: j}, {Job: j}})
	approx(t, "JCT equal-share vs job-fair", a.JCT(0), b.JCT(0), 1)
}

func TestFairByJobProtectsSmallJob(t *testing.T) {
	c := ref(10)
	small := singleStageJob(c, 100, 10, 1)
	big := twoParallelJob(c, 100, 10, 1)
	// Job-fair: small job gets 1/2 the NIC; equal-share per item: 1/3.
	byItem := mustRun(t, Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: small}, {Job: big}})
	byJob := mustRun(t, Options{Cluster: c, TrackNode: -1, FairByJob: true}, []JobRun{{Job: small}, {Job: big}})
	if byJob.JCT(0) >= byItem.JCT(0)-1 {
		t.Fatalf("job fairness should speed up the small job: %.1f vs %.1f",
			byJob.JCT(0), byItem.JCT(0))
	}
}

func TestCoarsenEquivalentForSymmetricLoad(t *testing.T) {
	c := ref(30)
	j := singleStageJob(c, 80, 120, 10)
	fine := mustRun(t, Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: j}})
	coarse := mustRun(t, Options{Cluster: Coarsen(c), TrackNode: -1}, []JobRun{{Job: j}})
	approx(t, "coarse JCT", coarse.JCT(0), fine.JCT(0), 1)
}

func TestCoarsenTotals(t *testing.T) {
	c := ref(30)
	cc := Coarsen(c)
	if cc.TotalExecutors() != c.TotalExecutors() {
		t.Error("executors not preserved")
	}
	approx(t, "net", cc.TotalNetBW(), c.TotalNetBW(), 1)
	approx(t, "disk", cc.TotalDiskBW(), c.TotalDiskBW(), 1)
	if len(cc.Nodes) != 1 {
		t.Error("coarse cluster must have a single node")
	}
}

func TestAggShuffleHelpsSkewedHurtsNotHomogeneous(t *testing.T) {
	c := ref(10)
	skewed := chainJob(c, 80, 100, 30, 0.8)
	plain := mustRun(t, Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: skewed}})
	agg := mustRun(t, Options{Cluster: c, TrackNode: -1, AggShuffle: true}, []JobRun{{Job: skewed}})
	if agg.JCT(0) >= plain.JCT(0)-1 {
		t.Errorf("AggShuffle should help skewed chain: plain %.1f agg %.1f", plain.JCT(0), agg.JCT(0))
	}
	homog := chainJob(c, 80, 100, 30, 0.0)
	plainH := mustRun(t, Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: homog}})
	aggH := mustRun(t, Options{Cluster: c, TrackNode: -1, AggShuffle: true}, []JobRun{{Job: homog}})
	// Homogeneous tasks release output only at completion: no benefit.
	approx(t, "homogeneous AggShuffle JCT", aggH.JCT(0), plainH.JCT(0), 2)
}

func TestUtilizationBounds(t *testing.T) {
	c := ref(10)
	j := twoParallelJob(c, 50, 80, 10)
	res := mustRun(t, Options{Cluster: c, TrackNode: 0}, []JobRun{{Job: j}})
	for _, v := range []float64{res.AvgCPUUtil, res.AvgNetUtil, res.AvgDiskUtil} {
		if v < 0 || v > 1+1e-9 {
			t.Fatalf("utilization %v outside [0,1]", v)
		}
	}
	if res.AvgCPUUtil == 0 || res.AvgNetUtil == 0 {
		t.Fatal("expected non-zero utilizations")
	}
}

func TestTrackedSeriesMonotonic(t *testing.T) {
	c := ref(5)
	j := twoParallelJob(c, 30, 40, 5)
	res := mustRun(t, Options{Cluster: c, TrackNode: 0}, []JobRun{{Job: j}})
	for _, s := range []Series{res.Node.CPUBusy, res.Node.NetRate, res.Node.DiskRate} {
		if len(s) == 0 {
			t.Fatal("tracked series empty")
		}
		for i := 1; i < len(s); i++ {
			if s[i].T < s[i-1].T {
				t.Fatalf("series time went backwards: %v then %v", s[i-1], s[i])
			}
		}
	}
}

func TestOccupancySegments(t *testing.T) {
	c := ref(5)
	j := twoParallelJob(c, 30, 40, 5)
	res := mustRun(t, Options{Cluster: c, TrackNode: -1, TrackOccupancy: true}, []JobRun{{Job: j}})
	if len(res.Occupancy) == 0 {
		t.Fatal("no occupancy segments recorded")
	}
	totalExec := float64(c.TotalExecutors())
	for _, seg := range res.Occupancy {
		if seg.To <= seg.From {
			t.Fatalf("empty segment %+v", seg)
		}
		if seg.Executors <= 0 || seg.Executors > totalExec+1e-9 {
			t.Fatalf("occupancy %v outside (0, %v]", seg.Executors, totalExec)
		}
	}
}

func TestDeterminism(t *testing.T) {
	c := ref(10)
	j := twoParallelJob(c, 60, 70, 8)
	a := mustRun(t, Options{Cluster: c, TrackNode: 0, TrackOccupancy: true}, []JobRun{{Job: j}})
	b := mustRun(t, Options{Cluster: c, TrackNode: 0, TrackOccupancy: true}, []JobRun{{Job: j}})
	if a.Makespan != b.Makespan || a.Events != b.Events {
		t.Fatalf("non-deterministic: %v/%v events %d/%d", a.Makespan, b.Makespan, a.Events, b.Events)
	}
	for i := range a.Timelines {
		if a.Timelines[i] != b.Timelines[i] {
			t.Fatalf("timeline %d differs", i)
		}
	}
}

func TestZeroWriteStage(t *testing.T) {
	c := ref(5)
	j := singleStageJob(c, 20, 30, 0)
	res := mustRun(t, Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: j}})
	tl := res.Timeline(0, 1)
	approx(t, "end==computeEnd", tl.End, tl.ComputeEnd, 1e-6)
}

func TestRunValidation(t *testing.T) {
	c := ref(3)
	j := singleStageJob(c, 1, 1, 1)
	cases := []struct {
		name string
		opt  Options
		runs []JobRun
	}{
		{"nil cluster", Options{}, []JobRun{{Job: j}}},
		{"no jobs", Options{Cluster: c}, nil},
		{"nil job", Options{Cluster: c}, []JobRun{{}}},
		{"negative arrival", Options{Cluster: c}, []JobRun{{Job: j, Arrival: -1}}},
		{"negative delay", Options{Cluster: c}, []JobRun{{Job: j, Delays: map[dag.StageID]float64{1: -5}}}},
		{"nan delay", Options{Cluster: c}, []JobRun{{Job: j, Delays: map[dag.StageID]float64{1: math.NaN()}}}},
	}
	for _, tc := range cases {
		if _, err := Run(tc.opt, tc.runs); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestMaxTimeAbort(t *testing.T) {
	c := ref(3)
	j := singleStageJob(c, 1000, 1000, 10)
	if _, err := Run(Options{Cluster: c, TrackNode: -1, MaxTime: 10}, []JobRun{{Job: j}}); err == nil {
		t.Fatal("expected MaxTime abort")
	}
}

// TestMaxTimeFromEarliestArrival: MaxTime is a duration measured from the
// run's earliest arrival, not an absolute clock — a job submitted on
// simulated day 31 runs under the default 30-day limit, and a short limit
// still aborts a late-arriving run that overstays it.
func TestMaxTimeFromEarliestArrival(t *testing.T) {
	c := ref(3)
	j := singleStageJob(c, 100, 100, 10)
	day31 := 31 * 24 * 3600.0
	early := mustRun(t, Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: j}})
	late := mustRun(t, Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: j, Arrival: day31}})
	if d := math.Abs(late.JCT(0) - early.JCT(0)); d > 1e-6 {
		t.Fatalf("day-31 JCT %v differs from day-0 JCT %v by %v", late.JCT(0), early.JCT(0), d)
	}
	if _, err := Run(Options{Cluster: c, TrackNode: -1, MaxTime: 1},
		[]JobRun{{Job: j, Arrival: day31}}); err == nil {
		t.Fatal("a late run overstaying MaxTime must still abort")
	}
	st, err := NewStepper(Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: j, Arrival: day31}})
	if err != nil {
		t.Fatal(err)
	}
	for st.HasPendingEvents() {
		if err := st.StepNextEvent(); err != nil {
			t.Fatalf("stepper at day 31: %v", err)
		}
	}
}

func TestMakespanCoversAllJobs(t *testing.T) {
	c := ref(5)
	j := singleStageJob(c, 10, 10, 1)
	res := mustRun(t, Options{Cluster: c, TrackNode: -1},
		[]JobRun{{Job: j, Arrival: 0}, {Job: j, Arrival: 500}})
	if res.Makespan < 500 {
		t.Fatalf("makespan %.1f must include the late job", res.Makespan)
	}
	if res.JCT(1) > res.JCT(0)+1 {
		t.Fatalf("non-overlapping jobs should have equal JCTs: %.1f vs %.1f", res.JCT(0), res.JCT(1))
	}
}
