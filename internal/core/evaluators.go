package core

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/perfmodel"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// restrictJob returns the job induced by the active stage set (nil = the
// job itself): only active stages remain and parent edges to inactive
// stages are dropped, which is how Alg. 1 sees the world while paths are
// still being scheduled one by one.
func restrictJob(job *workload.Job, active map[dag.StageID]bool) (*workload.Job, error) {
	if active == nil {
		return job, nil
	}
	g := dag.New()
	profiles := make(map[dag.StageID]workload.StageProfile)
	for _, id := range job.Graph.Stages() {
		if !active[id] {
			continue
		}
		var parents []dag.StageID
		for _, p := range job.Graph.Parents(id) {
			if active[p] {
				parents = append(parents, p)
			}
		}
		if err := g.AddStage(dag.Stage{ID: id, Name: job.Graph.Stage(id).Name, Parents: parents}); err != nil {
			return nil, err
		}
		profiles[id] = job.Profiles[id]
	}
	sub := &workload.Job{Name: job.Name, Graph: g, Profiles: profiles}
	if err := sub.Validate(); err != nil {
		return nil, err
	}
	return sub, nil
}

// coarseFor memoizes sim.Coarsen per cluster: replan loops and experiment
// sweeps build many evaluators against the same (immutable) cluster, and
// the coarse view never changes. Bounded so a long-lived process creating
// clusters forever does not leak — coarsening is cheap to redo.
var (
	coarseMu    sync.Mutex
	coarseCache = map[*cluster.Cluster]*cluster.Cluster{}
)

func coarseFor(c *cluster.Cluster) *cluster.Cluster {
	coarseMu.Lock()
	defer coarseMu.Unlock()
	if cc, ok := coarseCache[c]; ok {
		return cc
	}
	if len(coarseCache) >= 256 {
		clear(coarseCache)
	}
	cc := sim.Coarsen(c)
	coarseCache[c] = cc
	return cc
}

// EvalStats breaks the what-if evaluations of one Compute run down by how
// they were answered.
type EvalStats struct {
	// CacheHits counts configurations answered from the memo cache —
	// refine passes and replans re-query many configurations verbatim.
	CacheHits int
	// ForkedRuns counts simulations resumed from a scan snapshot: the
	// prefix up to the scanned stage's ready time was shared, only the
	// suffix ran.
	ForkedRuns int
	// FullRuns counts complete from-scratch simulations.
	FullRuns int
}

// evalShared is the state one simEvaluator shares with all its clones: the
// memo cache of evaluated configurations, the restricted-job cache, the
// work counters (behind mu), and the armed scan snapshot (behind scanMu,
// so a snapshot build never blocks concurrent memo hits).
type evalShared struct {
	disable bool

	mu      sync.Mutex
	memo    map[string]float64
	subJobs map[string]*workload.Job
	stats   EvalStats

	scanMu sync.Mutex
	scan   scanState
}

// scanState is the fork context of the current candidate scan — one
// stage's delay being swept, everything else fixed: the scanned stage, its
// ready time as measured by the scan's first full run (the stage's own
// delay cannot move it: a delay is only read *at* readiness), and the
// snapshot frozen just before that time, which later candidates fork.
type scanState struct {
	on   bool
	kid  dag.StageID
	trOK bool
	tr   float64
	snap *sim.Snapshot
}

// delayPair is one (stage, exact delay bits) term of a fingerprint.
type delayPair struct {
	id   dag.StageID
	bits uint64
}

// simEvaluator answers Alg. 1's "what happens if stage k is delayed by x̂"
// question by running the coarse fluid simulator on the active sub-job —
// the faithful interpretation of lines 12–14 (stage time under the
// resulting parallelism, completion-time updates of subsequent and
// interfering stages).
//
// It is the repository's one exact what-if evaluator. Alg. 1 simulates
// the job alone, arriving at 0; the online planner (via WhatIf) simulates
// a newcomer at its arrival time against a fixed background of committed
// runs. Either way the answer is Σ JCT over every simulated run — for a
// lone job arriving at 0 that is bit for bit its completion time.
//
// Three layers keep repeated questions cheap (see DESIGN.md, "What-if
// evaluation"): an exact memo cache over (active set, delay vector)
// fingerprints, snapshot forking during candidate scans (all candidates of
// one stage share the simulation prefix up to that stage's ready time),
// and a restricted-job cache per active set. The simulator is
// deterministic, memo keys are collision-free, and forked runs are
// bit-identical to from-scratch runs, so schedules are byte-identical with
// every layer on or off.
type simEvaluator struct {
	coarse    *cluster.Cluster
	job       *workload.Job
	cur       *workload.Job // restricted to the active set
	shared    *evalShared
	activeKey string // canonical key of the active set ("*" = all)

	// background are the fixed runs the evaluated job shares the cluster
	// with (none for Alg. 1); the evaluated job is simulated as run
	// len(background), submitted at arrival. fairByJob carries into every
	// simulation.
	background []sim.JobRun
	arrival    float64
	fairByJob  bool

	// Per-clone scratch, reset by Clone.
	keyScratch    []byte
	pairScratch   []delayPair
	filterScratch map[dag.StageID]float64
	runScratch    []sim.JobRun
}

func newSimEvaluator(c *cluster.Cluster, job *workload.Job, disableCache bool) *simEvaluator {
	return &simEvaluator{
		coarse: coarseFor(c), job: job, cur: job, activeKey: "*",
		shared: &evalShared{
			disable: disableCache,
			memo:    map[string]float64{},
			subJobs: map[string]*workload.Job{},
		},
	}
}

// Clone returns a concurrency-safe copy: immutable inputs and the shared
// cache state are carried over, the per-clone scratch buffers are not.
func (e *simEvaluator) Clone() Evaluator {
	c := *e
	c.keyScratch, c.pairScratch, c.filterScratch, c.runScratch = nil, nil, nil, nil
	return &c
}

// activeKeyOf canonically encodes an active set ("*" = unrestricted).
func activeKeyOf(active map[dag.StageID]bool) string {
	if active == nil {
		return "*"
	}
	ids := make([]dag.StageID, 0, len(active))
	for id, on := range active {
		if on {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b []byte
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return string(b)
}

func (e *simEvaluator) SetActive(active map[dag.StageID]bool) error {
	key := activeKeyOf(active)
	if key == e.activeKey {
		return nil
	}
	sh := e.shared
	sh.mu.Lock()
	sub, ok := sh.subJobs[key]
	sh.mu.Unlock()
	if !ok {
		var err error
		sub, err = restrictJob(e.job, active)
		if err != nil {
			return err
		}
		sh.mu.Lock()
		sh.subJobs[key] = sub
		sh.mu.Unlock()
	}
	e.cur, e.activeKey = sub, key
	return nil
}

// BeginScan implements scanAware: arm the fork context for a candidate
// scan of stage kid. Between BeginScan and EndScan every Makespan call
// varies only kid's delay.
func (e *simEvaluator) BeginScan(kid dag.StageID) {
	if e.shared.disable {
		return
	}
	e.shared.scanMu.Lock()
	e.shared.scan = scanState{on: true, kid: kid}
	e.shared.scanMu.Unlock()
}

// EndScan implements scanAware: drop the scan snapshot.
func (e *simEvaluator) EndScan() {
	if e.shared.disable {
		return
	}
	e.shared.scanMu.Lock()
	e.shared.scan = scanState{}
	e.shared.scanMu.Unlock()
}

// evalStats returns the shared work counters.
func (e *simEvaluator) evalStats() EvalStats {
	e.shared.mu.Lock()
	defer e.shared.mu.Unlock()
	return e.shared.stats
}

// fingerprint canonically encodes (active set, effective delay vector):
// the active-set key plus sorted (stage, exact float bits) pairs of every
// non-zero delay that applies to the active sub-job. Exact — distinct
// configurations can never collide — and zero entries drop out, so "no
// entry" and "explicit 0" (the same simulation) share one slot. The
// background and arrival are fixed for the evaluator's lifetime, so they
// need no place in the key.
func (e *simEvaluator) fingerprint(delays map[dag.StageID]float64) string {
	pairs := e.pairScratch[:0]
	for id, v := range delays {
		if v != 0 && e.cur.Graph.Stage(id) != nil {
			pairs = append(pairs, delayPair{id: id, bits: math.Float64bits(v)})
		}
	}
	slices.SortFunc(pairs, func(a, b delayPair) int { return int(a.id) - int(b.id) })
	e.pairScratch = pairs
	key := append(e.keyScratch[:0], e.activeKey...)
	for _, p := range pairs {
		key = append(key, '|')
		key = strconv.AppendInt(key, int64(p.id), 10)
		key = append(key, ':')
		key = strconv.AppendUint(key, p.bits, 16)
	}
	e.keyScratch = key
	return string(key)
}

// Makespan implements Evaluator: the objective (Σ JCT over every
// simulated run) under the evaluated job's delays.
func (e *simEvaluator) Makespan(delays map[dag.StageID]float64) (float64, error) {
	sh := e.shared
	var fp string
	if !sh.disable {
		fp = e.fingerprint(delays)
		sh.mu.Lock()
		if mk, ok := sh.memo[fp]; ok {
			sh.stats.CacheHits++
			sh.mu.Unlock()
			return mk, nil
		}
		sh.mu.Unlock()
	}
	mk, forked, err := e.simulate(delays)
	if err != nil {
		return 0, err
	}
	sh.mu.Lock()
	if !sh.disable {
		sh.memo[fp] = mk
	}
	if forked {
		sh.stats.ForkedRuns++
	} else {
		sh.stats.FullRuns++
	}
	sh.mu.Unlock()
	return mk, nil
}

// simulate answers one what-if configuration, forking the armed scan
// snapshot when one exists. The bool reports whether the answer came from
// a fork rather than a from-scratch run.
//
// Within a scan the first miss runs from scratch while holding scanMu (so
// concurrent misses queue behind it instead of racing to duplicate the
// work) and records the scanned stage's ready time; the second miss
// freezes the shared prefix there; every later miss forks it. The counts
// are therefore deterministic at any Parallelism setting: one full run and
// m−1 forks for a scan with m misses.
func (e *simEvaluator) simulate(delays map[dag.StageID]float64) (float64, bool, error) {
	sh := e.shared
	self := len(e.background)
	if !sh.disable {
		sh.scanMu.Lock()
		if sh.scan.on {
			if sh.scan.snap == nil && sh.scan.trOK {
				// Second miss: snapshot just before the scanned stage's
				// ready time with every delay but the scanned stage's
				// baked in.
				pre := make(map[dag.StageID]float64, len(delays))
				for id, v := range delays {
					if id != sh.scan.kid && e.cur.Graph.Stage(id) != nil {
						pre[id] = v
					}
				}
				snap, err := sim.SnapshotAt(e.options(), e.runs(pre), sh.scan.tr)
				if err != nil {
					sh.scanMu.Unlock()
					return 0, false, err
				}
				sh.scan.snap = snap
			}
			if snap, kid := sh.scan.snap, sh.scan.kid; snap != nil {
				sh.scanMu.Unlock()
				res, err := snap.Resume([]sim.DelayUpdate{{Job: self, Stage: kid, Delay: delays[kid]}})
				if err != nil {
					return 0, false, err
				}
				return totalJCT(res), true, nil
			}
			// First miss of the scan.
			res, err := e.fullRun(delays)
			if err == nil {
				if tl := res.Timeline(self, sh.scan.kid); tl != nil {
					sh.scan.tr, sh.scan.trOK = tl.Ready, true
				}
			}
			sh.scanMu.Unlock()
			if err != nil {
				return 0, false, err
			}
			return totalJCT(res), false, nil
		}
		sh.scanMu.Unlock()
	}
	res, err := e.fullRun(delays)
	if err != nil {
		return 0, false, err
	}
	return totalJCT(res), false, nil
}

// options are the simulation options of every what-if run.
func (e *simEvaluator) options() sim.Options {
	return sim.Options{Cluster: e.coarse, TrackNode: -1, FairByJob: e.fairByJob}
}

// runs lays out the background plus the evaluated job under delays in the
// clone's reused run slice (sim.Run neither retains nor mutates it, and
// SnapshotAt copies it).
func (e *simEvaluator) runs(delays map[dag.StageID]float64) []sim.JobRun {
	if e.runScratch == nil {
		e.runScratch = append(make([]sim.JobRun, 0, len(e.background)+1), e.background...)
		e.runScratch = append(e.runScratch, sim.JobRun{})
	}
	e.runScratch[len(e.background)] = sim.JobRun{Job: e.cur, Arrival: e.arrival, Delays: delays}
	return e.runScratch
}

// fullRun simulates the background and the active sub-job from scratch.
// Delays for stages outside the sub-job are filtered out; when every entry
// applies — the common case — the caller's live map is passed through
// as-is (sim.Run neither retains nor mutates it), and the filtered copy
// otherwise lands in a reused scratch map.
func (e *simEvaluator) fullRun(delays map[dag.StageID]float64) (*sim.Result, error) {
	d := delays
	if len(delays) > 0 {
		for id := range delays {
			if e.cur.Graph.Stage(id) == nil {
				if e.filterScratch == nil {
					e.filterScratch = make(map[dag.StageID]float64, len(delays))
				} else {
					clear(e.filterScratch)
				}
				for id, v := range delays {
					if e.cur.Graph.Stage(id) != nil {
						e.filterScratch[id] = v
					}
				}
				d = e.filterScratch
				break
			}
		}
	}
	return sim.Run(e.options(), e.runs(d))
}

// totalJCT is the what-if objective: Σ (end − arrival) over every run, in
// run order. For Alg. 1's lone job arriving at 0 it is the completion time
// of the whole (active) job, measured from job start — JobEnd is the
// latest stage end, and 0 + (end − 0) is end exactly. Eq. (3) charges the
// delays x_k to the path times, so a window-width objective would let
// delays shift every path later for free; and minimizing only the last
// *parallel* stage can push the specific parents of a sequential tail
// later while the K-maximum shrinks, hurting the JCT the paper reports.
// The job end subsumes both: with zero-length tails it equals the
// parallel-region completion.
func totalJCT(res *sim.Result) float64 {
	total := 0.0
	for i := range res.JobEnd {
		total += res.JCT(i)
	}
	return total
}

// WhatIf is the exact what-if evaluator for callers outside Alg. 1: it
// prices a newcomer's delay vector against a fixed background of
// committed runs with the same memo cache and scan-snapshot forks Compute
// uses, so the online planner needs no simulation path of its own. The
// background is fixed for the WhatIf's lifetime — build a new one whenever
// it changes, or the memo answers for a world that no longer exists.
//
// Not safe for concurrent use.
type WhatIf struct{ e *simEvaluator }

// NewWhatIf returns an evaluator for job submitted at arrival on c (coarse
// view, as Compute simulates), sharing the cluster with background (copied;
// it must validate for sim.Run). fairByJob carries into every simulation.
func NewWhatIf(c *cluster.Cluster, job *workload.Job, arrival float64, background []sim.JobRun, fairByJob bool) *WhatIf {
	e := newSimEvaluator(c, job, false)
	e.background = slices.Clone(background)
	e.arrival, e.fairByJob = arrival, fairByJob
	return &WhatIf{e: e}
}

// Total returns Σ JCT over the background runs and the job under delays,
// summed in run order with the job last — bit for bit what one sim.Run of
// background+job reports. The map is read, never retained.
func (w *WhatIf) Total(delays map[dag.StageID]float64) (float64, error) {
	return w.e.Makespan(delays)
}

// BeginScan declares that every Total call until EndScan varies only stage
// kid's delay, so candidates fork one snapshot taken just before kid's
// ready time instead of simulating from scratch.
func (w *WhatIf) BeginScan(kid dag.StageID) { w.e.BeginScan(kid) }

// EndScan drops the scan snapshot.
func (w *WhatIf) EndScan() { w.e.EndScan() }

// Stats breaks the Total calls so far down by how they were answered.
func (w *WhatIf) Stats() EvalStats { return w.e.evalStats() }

// modelEvaluator approximates the same question in closed form, phase by
// phase: every stage is three consecutive intervals — shuffle read
// (network), compute (executors), shuffle write (disk) — and each phase's
// solo duration is stretched by the time-averaged number of *same-phase*
// concurrent stages (the equal-share assumption of Eq. 1). Interval layout
// and stretches are iterated to a fixed point. O(|K|²) per evaluation and
// close enough to the fluid simulation to rank delay candidates correctly
// for the DAG shapes in the Alibaba trace.
type modelEvaluator struct {
	job    *workload.Job
	topo   []dag.StageID
	idx    map[dag.StageID]int
	active map[dag.StageID]bool
	inK    map[dag.StageID]bool
	soloR  map[dag.StageID]float64
	soloC  map[dag.StageID]float64
	soloW  map[dag.StageID]float64
	alpha  float64 // contention-overhead factor matching the simulator

	// Memoized layouts, shared with clones like the sim evaluator's memo:
	// refine passes and the base evaluation of each scan re-ask
	// configurations the previous scan already priced, and a layout on a
	// 100+-stage job is thousands of float operations. The key is exact
	// (active set + float bits of every applicable non-zero delay), so a
	// hit returns the identical float a recomputation would.
	shared    *modelShared
	activeKey string

	// Flattened per-index state, precomputed once: layout() runs tens of
	// thousands of times per Compute call on large jobs.
	parentIdx  [][]int
	soloRi     []float64
	soloCi     []float64
	soloWi     []float64
	activeIdx  []bool
	bounds     [][4]float64
	stretch    [][3]float64
	covScratch []covEvent
	ovS, ovF   []float64

	keyScratch  []byte
	pairScratch []delayPair
}

// modelShared is the memo state one modelEvaluator shares with its clones.
type modelShared struct {
	mu    sync.Mutex
	memo  map[string]float64
	stats EvalStats
}

func newModelEvaluator(m *perfmodel.Model, job *workload.Job, reach *dag.Reachability,
	k []dag.StageID, solo map[dag.StageID]float64) *modelEvaluator {
	inK := make(map[dag.StageID]bool, len(k))
	for _, id := range k {
		inK[id] = true
	}
	topo, _ := job.Graph.TopoSort()
	e := &modelEvaluator{
		job: job, topo: topo, inK: inK,
		soloR:  make(map[dag.StageID]float64, len(topo)),
		soloC:  make(map[dag.StageID]float64, len(topo)),
		soloW:  make(map[dag.StageID]float64, len(topo)),
		alpha:  0.22,
		shared: &modelShared{memo: map[string]float64{}},

		activeKey: "*",
	}
	idx := make(map[dag.StageID]int, len(topo))
	for i, id := range topo {
		idx[id] = i
	}
	e.idx = idx
	n := len(topo)
	e.parentIdx = make([][]int, n)
	e.soloRi = make([]float64, n)
	e.soloCi = make([]float64, n)
	e.soloWi = make([]float64, n)
	e.activeIdx = make([]bool, n)
	e.bounds = make([][4]float64, n)
	e.stretch = make([][3]float64, n)
	e.ovS = make([]float64, n)
	e.ovF = make([]float64, n)
	for i, id := range topo {
		r, c, w := m.PhaseBreakdown(job.Profiles[id])
		e.soloR[id], e.soloC[id], e.soloW[id] = r, c, w
		e.soloRi[i], e.soloCi[i], e.soloWi[i] = r, c, w
		for _, p := range job.Graph.Stage(id).Parents {
			e.parentIdx[i] = append(e.parentIdx[i], idx[p])
		}
		e.activeIdx[i] = true
	}
	return e
}

// Clone returns a copy whose layout scratch (bounds, stretch, coverage
// events) is private, so concurrent Makespan calls on distinct clones are
// safe. The immutable inputs (topo, profiles, parent indices) and the
// active set — fixed for the clone's scan-scoped lifetime — are shared.
func (e *modelEvaluator) Clone() Evaluator {
	c := *e
	n := len(e.topo)
	c.bounds = make([][4]float64, n)
	c.stretch = make([][3]float64, n)
	c.ovS = make([]float64, n)
	c.ovF = make([]float64, n)
	c.covScratch = nil
	c.keyScratch, c.pairScratch = nil, nil
	return &c
}

func (e *modelEvaluator) SetActive(active map[dag.StageID]bool) error {
	e.active = active
	e.activeKey = activeKeyOf(active)
	for i, id := range e.topo {
		e.activeIdx[i] = active == nil || active[id]
	}
	return nil
}

// fingerprint canonically encodes (active set, effective delay vector) the
// same way the sim evaluator does: only non-zero delays of active stages
// count, so "no entry" and "explicit 0" share one memo slot.
func (e *modelEvaluator) fingerprint(delays map[dag.StageID]float64) string {
	pairs := e.pairScratch[:0]
	for id, v := range delays {
		if v == 0 {
			continue
		}
		if i, ok := e.idx[id]; ok && e.activeIdx[i] {
			pairs = append(pairs, delayPair{id: id, bits: math.Float64bits(v)})
		}
	}
	slices.SortFunc(pairs, func(a, b delayPair) int { return int(a.id) - int(b.id) })
	e.pairScratch = pairs
	key := append(e.keyScratch[:0], e.activeKey...)
	for _, p := range pairs {
		key = append(key, '|')
		key = strconv.AppendInt(key, int64(p.id), 10)
		key = append(key, ':')
		key = strconv.AppendUint(key, p.bits, 16)
	}
	e.keyScratch = key
	return string(key)
}

// evalStats returns the shared memo counters (ForkedRuns stays zero: the
// closed-form model has nothing to fork).
func (e *modelEvaluator) evalStats() EvalStats {
	e.shared.mu.Lock()
	defer e.shared.mu.Unlock()
	return e.shared.stats
}

func (e *modelEvaluator) isActive(id dag.StageID) bool {
	return e.active == nil || e.active[id]
}

// PredictTimelines returns the model-predicted execution time of every
// stage of the job under stock scheduling (no delays), using the same
// phase-aware interference model as Alg. 1's fast evaluator. This is the
// prediction the Appendix A.2 experiment scores against the simulator.
func PredictTimelines(m *perfmodel.Model, job *workload.Job) (map[dag.StageID]float64, error) {
	reach, err := dag.NewReachability(job.Graph)
	if err != nil {
		return nil, err
	}
	k := dag.ParallelStages(job.Graph, reach)
	solo := m.SoloTimes(job)
	ev := newModelEvaluator(m, job, reach, k, solo)
	bounds, err := ev.layout(nil)
	if err != nil {
		return nil, err
	}
	out := make(map[dag.StageID]float64, len(ev.topo))
	for i, id := range ev.topo {
		out[id] = bounds[i][3] - bounds[i][0]
	}
	return out, nil
}

// Makespan lays every active stage out as three consecutive phase
// intervals and iterates interference stretches to a fixed point,
// memoizing per exact configuration.
func (e *modelEvaluator) Makespan(delays map[dag.StageID]float64) (float64, error) {
	fp := e.fingerprint(delays)
	sh := e.shared
	sh.mu.Lock()
	if mk, ok := sh.memo[fp]; ok {
		sh.stats.CacheHits++
		sh.mu.Unlock()
		return mk, nil
	}
	sh.mu.Unlock()
	bounds, err := e.layout(delays)
	if err != nil {
		return 0, err
	}
	// Completion time of the last active stage from job start (see the
	// sim evaluator for why the job end, not the K-set end, is the
	// objective).
	hi := 0.0
	for i := range e.topo {
		if !e.activeIdx[i] {
			continue
		}
		if bounds[i][3] > hi {
			hi = bounds[i][3]
		}
	}
	sh.mu.Lock()
	sh.memo[fp] = hi
	sh.stats.FullRuns++
	sh.mu.Unlock()
	return hi, nil
}

// layout computes every active stage's phase boundaries under the delays.
// It reuses the evaluator's scratch buffers; the returned slice is only
// valid until the next call.
func (e *modelEvaluator) layout(delays map[dag.StageID]float64) ([][4]float64, error) {
	bounds, stretch := e.bounds, e.stretch
	for i := range stretch {
		stretch[i] = [3]float64{1, 1, 1}
		bounds[i] = [4]float64{}
	}
	iters := 4
	if len(e.topo) > 100 {
		// Large trace jobs: one fewer fixed-point pass keeps Alg. 1's
		// runtime in the paper's Fig. 15 envelope at negligible accuracy
		// cost (the layout changes little after the second pass).
		iters = 2
	}
	for it := 0; it < iters; it++ {
		for i, id := range e.topo {
			if !e.activeIdx[i] {
				continue
			}
			ready := 0.0
			for _, pi := range e.parentIdx[i] {
				if !e.activeIdx[pi] {
					continue
				}
				if pe := bounds[pi][3]; pe > ready {
					ready = pe
				}
			}
			d := 0.0
			if delays != nil {
				d = delays[id]
			}
			b := ready + d
			bounds[i][0] = b
			b += e.soloRi[i] * stretch[i][0]
			bounds[i][1] = b
			b += e.soloCi[i] * stretch[i][1]
			bounds[i][2] = b
			b += e.soloWi[i] * stretch[i][2]
			bounds[i][3] = b
		}
		if it == iters-1 {
			break
		}
		// Per-phase stretch: equal sharing with contention overhead. With
		// a time-averaged overlap count f̄ (self included), the effective
		// rate is 1/(f̄·(1+α(f̄−1))) of solo. The pairwise overlap sums are
		// answered in O(1) per stage from one sorted event sweep — Alg. 1
		// calls this layout thousands of times per Compute on 100+-stage
		// trace jobs (Fig. 15), so the sweep is the planner's hot loop.
		for ph := 0; ph < 3; ph++ {
			e.phaseOverlaps(bounds, ph)
			for i := range e.topo {
				if !e.activeIdx[i] {
					continue
				}
				s, f := bounds[i][ph], bounds[i][ph+1]
				if f <= s {
					stretch[i][ph] = 1
					continue
				}
				// Total coverage over [s,f] minus this stage's own f−s.
				overlap := e.ovF[i] - e.ovS[i] - (f - s)
				if overlap < 0 {
					overlap = 0
				}
				fbar := 1 + overlap/(f-s)
				extra := fbar - 1
				if extra > 4 { // matches the simulator's saturation cap
					extra = 4
				}
				stretch[i][ph] = fbar * (1 + e.alpha*extra)
			}
		}
	}
	return bounds, nil
}

// covEvent is one +1/−1 coverage-count change of stage idx's interval.
type covEvent struct {
	t   float64
	idx int32
	d   int8
}

// sortCovEvents orders events by time ascending (ties in any order) with
// a direct-compare quicksort: the generic/closure sort's indirect compare
// calls alone were ~25% of Alg. 1's model-tier runtime on Fig. 15 jobs.
func sortCovEvents(evs []covEvent) {
	for len(evs) > 12 {
		// Median-of-three pivot to first position.
		m := len(evs) / 2
		h := len(evs) - 1
		if evs[m].t < evs[0].t {
			evs[m], evs[0] = evs[0], evs[m]
		}
		if evs[h].t < evs[0].t {
			evs[h], evs[0] = evs[0], evs[h]
		}
		if evs[h].t < evs[m].t {
			evs[h], evs[m] = evs[m], evs[h]
		}
		evs[0], evs[m] = evs[m], evs[0]
		p := evs[0].t
		i, j := 1, h
		for {
			for i <= j && evs[i].t < p {
				i++
			}
			for i <= j && evs[j].t > p {
				j--
			}
			if i > j {
				break
			}
			evs[i], evs[j] = evs[j], evs[i]
			i++
			j--
		}
		evs[0], evs[j] = evs[j], evs[0]
		// Recurse on the smaller half, loop on the larger.
		if j < len(evs)-j {
			sortCovEvents(evs[:j])
			evs = evs[j+1:]
		} else {
			sortCovEvents(evs[j+1:])
			evs = evs[:j]
		}
	}
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].t < evs[j-1].t; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

// phaseOverlaps fills ovS/ovF with ∫₀ᵗ coverage du evaluated at every
// active stage's ph-phase start and end: one typed sort plus one event
// sweep, no per-stage binary searches. Every query time is itself an
// event time and the integral is accumulated group-by-group in ascending
// time order — exactly the sequence of float additions the former
// coverage index performed — so the recorded values are bit-identical to
// what its integral() lookups returned.
func (e *modelEvaluator) phaseOverlaps(bounds [][4]float64, ph int) {
	evs := e.covScratch[:0]
	for i := range e.topo {
		if !e.activeIdx[i] {
			continue
		}
		s, f := bounds[i][ph], bounds[i][ph+1]
		if f <= s {
			continue
		}
		evs = append(evs,
			covEvent{t: s, idx: int32(i), d: 1},
			covEvent{t: f, idx: int32(i), d: -1})
	}
	e.covScratch = evs
	// Ties may land in any order: the integral value at t is recorded for
	// every event of the group before any of the group's ±1 deltas apply,
	// so intra-group order cannot change a result.
	sortCovEvents(evs)
	cur, integral, prev := 0.0, 0.0, 0.0
	for i := 0; i < len(evs); {
		t := evs[i].t
		if i > 0 {
			integral += cur * (t - prev)
		}
		prev = t
		for i < len(evs) && evs[i].t == t {
			ev := evs[i]
			if ev.d > 0 {
				e.ovS[ev.idx] = integral
			} else {
				e.ovF[ev.idx] = integral
			}
			cur += float64(ev.d)
			i++
		}
	}
}

// approxEvaluator adapts the analytic BoundEvaluator to the Evaluator
// interface for Options.Approximate: Makespan returns the bound
// surrogate's Estimate, so the whole Alg. 1 machinery — growing-active-set
// sweeps, refinement passes, the never-worse guard — runs unchanged with
// zero simulations. The pruning tier stays sound against it because the
// Estimate is clamped to ≥ Lower by construction.
type approxEvaluator struct {
	b *perfmodel.BoundEvaluator
}

func (e *approxEvaluator) SetActive(active map[dag.StageID]bool) error {
	e.b.SetActive(active)
	return nil
}

func (e *approxEvaluator) Makespan(delays map[dag.StageID]float64) (float64, error) {
	return e.b.Bounds(delays).Estimate, nil
}

// Clone hands the clone its own bound-evaluator scratch; the immutable
// inputs and the per-active-set concurrency cache stay shared.
func (e *approxEvaluator) Clone() Evaluator { return &approxEvaluator{b: e.b.Clone()} }
