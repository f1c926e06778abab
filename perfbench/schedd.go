package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/jobspec"
	"delaystage/internal/obs"
	"delaystage/internal/service"
	"delaystage/internal/sim"
	"delaystage/internal/workload"
)

// steadyShapes are the DAGs schedd-steady draws from: the gallery and the
// paper's prototype workloads.
var steadyShapes = []func(*cluster.Cluster, float64) *workload.Job{
	workload.PageRank, workload.SQLJoin, workload.ETL, workload.ALS,
	workload.ConnectedComponents, workload.CosineSimilarity, workload.LDA, workload.TriangleCount,
}

const (
	// steadyRate is schedd-steady's Poisson arrival rate in jobs per
	// simulated second: the cluster drains between most busy periods.
	steadyRate = 1.0 / 2000
	// Per-job scales are log-uniform in [steadyMinScale, steadyMaxScale].
	steadyMinScale, steadyMaxScale = 0.25, 2.0
	scheddNodes                    = 10 // schedd's default cluster: 10 m4.large nodes
	// warmGap spaces the warm-up arrivals, in simulated seconds, so far
	// apart that every warm-up job runs alone.
	warmGap = 1e5
)

// scheddWorkload is schedd-steady: it drives an in-process scheduling
// service over HTTP, one POST /v1/jobs at a time on one keep-alive
// connection, submitting gallery and paper DAGs at Poisson arrivals.
// Arrivals are fixed in simulated time by the seed (open loop there); in
// host time the next job is sent only when the previous one returns
// (closed loop).
//
// A pass is several sessions, each a fresh service — a daemon restart —
// fed its own arrival sequence. A session's cost depends on how its
// Poisson arrivals cluster into busy periods, which varies by tens of
// percent from seed to seed; a longer session would run past the data
// plane's 30-day limit, so a pass averages over sessions instead.
type scheddWorkload struct {
	jobs     int // per session
	sessions int
	warm     int
	seed     int64

	cluster *cluster.Cluster
	bodies  [][][]byte // per session, the POST /v1/jobs payloads in submission order
	srv     *obs.Server
	front   *front
	client  *http.Client
	base    string
}

// submitBody mirrors the POST /v1/jobs payload.
type submitBody struct {
	Tenant  string          `json:"tenant"`
	Arrival *float64        `json:"arrival"`
	Job     json.RawMessage `json:"job"`
}

// jobStatus is the part of the service's job status the checks read.
type jobStatus struct {
	ID      string  `json:"id"`
	State   string  `json:"state"`
	Arrival float64 `json:"arrival"`
	JCT     float64 `json:"jct"`
	Epoch   int     `json:"epoch"`
}

// front is the benchmark's own middleware around Service.Handler(): it
// lets one server outlive the per-pass services, and in a traced run it
// records a handler span for every request that carries a client span ID.
type front struct {
	h  atomic.Pointer[http.Handler]
	tr atomic.Pointer[tracer]
}

func (f *front) set(h http.Handler, t *tracer) {
	f.h.Store(&h)
	f.tr.Store(t)
}

func (f *front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := *f.h.Load()
	t := f.tr.Load()
	parent, err := strconv.Atoi(r.Header.Get(reqIDHeader))
	if t == nil || err != nil {
		h.ServeHTTP(w, r)
		return
	}
	id := t.begin(spanHandler, parent)
	w.Header().Set(spanIDHeader, strconv.Itoa(id))
	h.ServeHTTP(w, r)
	t.end(id)
}

func (w *scheddWorkload) newService() (*service.Service, error) {
	// schedd's defaults: accept-all admission, FairByJob, 16 candidates,
	// 1 s slots, exact planning, drift tolerance 0.15, template cache on.
	return service.New(service.Options{
		Cluster:        w.cluster,
		MaxCandidates:  16,
		SlotSeconds:    1,
		FairByJob:      true,
		DriftTolerance: 0.15,
	})
}

// encode draws every session's jobs and arrivals from one seeded stream
// and encodes them as POST /v1/jobs payloads.
func (w *scheddWorkload) encode() error {
	rng := rand.New(rand.NewSource(w.seed))
	lo, hi := math.Log(steadyMinScale), math.Log(steadyMaxScale)
	w.bodies = make([][][]byte, w.sessions)
	for s := range w.bodies {
		t := 0.0
		for i := 0; i < w.jobs; i++ {
			t += rng.ExpFloat64() / steadyRate
			shape := steadyShapes[rng.Intn(len(steadyShapes))]
			body, err := submission(shape(w.cluster, math.Exp(lo+rng.Float64()*(hi-lo))), t)
			if err != nil {
				return err
			}
			w.bodies[s] = append(w.bodies[s], body)
		}
	}
	return nil
}

// submission encodes one POST /v1/jobs payload.
func submission(job *workload.Job, arrival float64) ([]byte, error) {
	spec, err := json.Marshal(jobspec.FromJob(job))
	if err != nil {
		return nil, err
	}
	return json.Marshal(submitBody{Tenant: "bench", Arrival: &arrival, Job: spec})
}

func (w *scheddWorkload) setup() error {
	w.close()
	w.cluster = cluster.NewM4LargeCluster(scheddNodes)
	if err := w.encode(); err != nil {
		return err
	}
	w.front = &front{}
	srv, err := obs.ServeHandler("127.0.0.1:0", w.front)
	if err != nil {
		return err
	}
	w.srv = srv
	w.base = "http://" + w.srv.Addr
	w.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}
	// Warm up on a throwaway service, so the measured one starts with a
	// cold template cache, as after a daemon restart. The warm-up jobs are
	// the same for every seed — the shapes in turn at scale 1, each alone
	// on the cluster — because planning the seed's own first jobs costs
	// from 0.01 to 0.12 s, and set-up time would follow the seed.
	svc, err := w.newService()
	if err != nil {
		return err
	}
	w.front.set(svc.Handler(), nil)
	for i := 0; i < w.warm; i++ {
		body, err := submission(steadyShapes[i%len(steadyShapes)](w.cluster, 1), float64(i)*warmGap)
		if err != nil {
			return err
		}
		if r := w.post(nil, body); r.err != nil {
			return fmt.Errorf("warm-up: %w", r.err)
		}
	}
	return svc.Drain()
}

func (w *scheddWorkload) close() {
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.srv != nil {
		_ = w.srv.Close() // a close error after the runs cannot change the result
	}
	w.client, w.srv = nil, nil
}

type postReply struct {
	status      jobStatus
	handlerSpan int
	err         error
}

// post sends one submission and waits for its reply. A non-200 response
// is an error.
func (w *scheddWorkload) post(t *tracer, body []byte) postReply {
	rep := postReply{handlerSpan: noSpan}
	id := t.begin(spanPost, noSpan)
	req, err := http.NewRequest(http.MethodPost, w.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		rep.err = err
		return rep
	}
	req.Header.Set("Content-Type", "application/json")
	if id != noSpan {
		req.Header.Set(reqIDHeader, strconv.Itoa(id))
	}
	resp, err := w.client.Do(req)
	if err != nil {
		t.end(id)
		rep.err = err
		return rep
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t.end(id)
	if hs, perr := strconv.Atoi(resp.Header.Get(spanIDHeader)); perr == nil {
		rep.handlerSpan = hs
	}
	switch {
	case err != nil:
		rep.err = err
	case resp.StatusCode != http.StatusOK:
		rep.err = fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, strings.TrimSpace(string(b)))
	default:
		rep.err = json.Unmarshal(b, &rep.status)
	}
	return rep
}

func (w *scheddWorkload) get(path string, v any) error {
	resp, err := w.client.Get(w.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body) // best effort: the status already fails the call
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(b)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape reads the named counters from GET /metrics.
func (w *scheddWorkload) scrape(names ...string) (map[string]float64, error) {
	resp, err := w.client.Get(w.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !want[name] {
			continue
		}
		if out[name], err = strconv.ParseFloat(val, 64); err != nil {
			return nil, fmt.Errorf("metric %s: %w", name, err)
		}
	}
	return out, sc.Err()
}

func (w *scheddWorkload) pass(t *tracer) (*passResult, error) {
	out := newPassResult()
	for _, bodies := range w.bodies {
		if err := w.session(t, out, bodies); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// session submits bodies to a fresh service, drains it and checks it.
func (w *scheddWorkload) session(t *tracer, out *passResult, bodies [][]byte) error {
	svc, err := w.newService()
	if err != nil {
		return err
	}
	w.front.set(svc.Handler(), t)
	accepted := make([]int, 0, len(bodies)) // index of every body with a 200 reply
	ids := make([]string, 0, len(bodies))
	handlerSpans := make([]int, 0, len(bodies))
	start := time.Now()
	for i, body := range bodies {
		t0 := time.Now()
		rep := w.post(t, body)
		out.latMS = append(out.latMS, msSince(t0))
		out.jobs++
		if rep.err != nil {
			out.problem("job %d: %v", i, rep.err)
			continue
		}
		accepted = append(accepted, i)
		ids = append(ids, rep.status.ID)
		handlerSpans = append(handlerSpans, rep.handlerSpan)
	}
	out.timed += time.Since(start)
	w.front.set(svc.Handler(), nil)

	id := t.begin(spanDrain, noSpan)
	err = svc.Drain()
	t.end(id)
	if err != nil {
		out.problem("drain: %v", err)
		return nil
	}
	if t != nil {
		if err := w.layerCounts(out, ids, handlerSpans, t); err != nil {
			return err
		}
	}
	return w.check(t, out, bodies, accepted, ids)
}

// continuousTolerance is how far, in simulated seconds, a job's service
// JCT may lie from one continuous simulation of every committed plan: the
// engine's event tolerance (eps and minDT, both 1e-6 s). The service
// simulates each busy period on its own stepper, and a simulation that
// also carries the earlier, finished busy periods reaches the same event
// times through different float sums.
const continuousTolerance = 1e-6

// check verifies a session. Every accepted job is done. The jobs the
// service grouped into one epoch form exactly one busy period, and every
// job's JCT is bit-identical to an independent sim.Run of its busy period
// (the service's arrivals and GET /v1/plan delays on the coarse cluster,
// FairByJob). One continuous sim.Run of all committed plans agrees with
// every JCT within continuousTolerance. It also simulates the same jobs
// and arrivals stock.
func (w *scheddWorkload) check(t *tracer, out *passResult, bodies [][]byte, accepted []int, ids []string) error {
	var statuses []jobStatus
	if err := w.get("/v1/jobs", &statuses); err != nil {
		return err
	}
	byID := make(map[string]jobStatus, len(statuses))
	for _, st := range statuses {
		byID[st.ID] = st
	}
	runs := make([]sim.JobRun, len(ids))
	stock := make([]sim.JobRun, len(ids))
	for k, jid := range ids {
		var plan struct {
			Delays map[string]float64 `json:"delays"`
		}
		if err := w.get("/v1/plan/"+jid, &plan); err != nil {
			return err
		}
		delays := make(map[dag.StageID]float64, len(plan.Delays))
		for sid, d := range plan.Delays {
			n, err := strconv.Atoi(sid)
			if err != nil {
				return fmt.Errorf("plan %s: stage %q: %w", jid, sid, err)
			}
			delays[dag.StageID(n)] = d
		}
		job, err := decodeJob(t, bodies[accepted[k]], w.cluster)
		if err != nil {
			return err
		}
		st := byID[jid]
		runs[k] = sim.JobRun{Job: job, Arrival: st.Arrival, Delays: delays}
		stock[k] = sim.JobRun{Job: job, Arrival: st.Arrival}
	}
	if len(ids) < len(bodies) {
		out.problem("JCT check skipped: %d of %d submissions failed", len(bodies)-len(ids), len(bodies))
		return nil
	}
	simulate := func(runs []sim.JobRun) (*sim.Result, error) {
		id := t.begin(spanSimRun, noSpan)
		res, err := sim.Run(sim.Options{Cluster: sim.Coarsen(w.cluster), TrackNode: -1, FairByJob: true}, runs)
		t.end(id)
		if err == nil {
			t.attr(id, attrEvents, float64(res.Events))
			out.count("sim.events", res.Events)
		}
		return res, err
	}
	periods, err := w.busyPeriods(out, ids, byID, runs, simulate)
	if err != nil {
		out.problem("busy-period simulation: %v", err)
		return nil
	}
	res, err := simulate(runs)
	if err != nil {
		out.problem("continuous simulation: %v", err)
		return nil
	}
	sres, err := simulate(stock)
	if err != nil {
		out.problem("stock simulation: %v", err)
		return nil
	}
	for k, jid := range ids {
		st := byID[jid]
		out.digestJob(st.JCT, runs[k].Delays)
		out.planJCT += st.JCT
		out.stockJCT += sres.JCT(k)
		if math.Float64bits(st.JCT) != math.Float64bits(res.JCT(k)) {
			out.floatDiffs++
		}
		switch {
		case st.State != string(service.StateDone):
			out.problem("job %s: state %q after drain", jid, st.State)
		case math.Float64bits(st.JCT) != math.Float64bits(periods[k]):
			out.problem("job %s: service JCT %v, busy-period simulation %v", jid, st.JCT, periods[k])
		case !(math.Abs(st.JCT-res.JCT(k)) <= continuousTolerance):
			out.problem("job %s: service JCT %v, continuous simulation %v", jid, st.JCT, res.JCT(k))
		default:
			out.ok++
		}
	}
	return nil
}

// busyPeriods simulates each epoch's jobs on their own and returns every
// job's JCT from its epoch's run. It checks that epochs follow submission
// order and that each is one busy period of those runs: every job but an
// epoch's first arrives before the epoch's earlier jobs have all ended,
// and an epoch's first job arrives no earlier than the previous epoch's
// last end.
func (w *scheddWorkload) busyPeriods(out *passResult, ids []string, byID map[string]jobStatus,
	runs []sim.JobRun, simulate func([]sim.JobRun) (*sim.Result, error)) ([]float64, error) {
	jct := make([]float64, len(ids))
	prevEnd := math.Inf(-1)
	for lo := 0; lo < len(ids); {
		epoch := byID[ids[lo]].Epoch
		hi := lo + 1
		for hi < len(ids) && byID[ids[hi]].Epoch == epoch {
			hi++
		}
		if hi < len(ids) && byID[ids[hi]].Epoch < epoch {
			return nil, fmt.Errorf("job %s: epoch %d after epoch %d", ids[hi], byID[ids[hi]].Epoch, epoch)
		}
		res, err := simulate(runs[lo:hi])
		if err != nil {
			return nil, err
		}
		if a := runs[lo].Arrival; a < prevEnd {
			out.problem("job %s opens epoch %d at %v, before the previous epoch ends at %v", ids[lo], epoch, a, prevEnd)
		}
		end := math.Inf(-1)
		for i, k := 0, lo; k < hi; i, k = i+1, k+1 {
			if i > 0 && runs[k].Arrival >= end {
				out.problem("job %s arrives at %v after epoch %d drained at %v", ids[k], runs[k].Arrival, epoch, end)
			}
			end = math.Max(end, res.JobEnd[i])
			jct[k] = res.JCT(i)
		}
		prevEnd, lo = end, hi
	}
	return jct, nil
}

// decodeJob turns a request body into the workload the handler sees:
// envelope, jobspec.Parse and Spec.Job, as the service decodes it.
func decodeJob(t *tracer, body []byte, c *cluster.Cluster) (*workload.Job, error) {
	id := t.begin(spanDecode, noSpan)
	defer t.end(id)
	var env submitBody
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, err
	}
	spec, err := jobspec.Parse(bytes.NewReader(env.Job))
	if err != nil {
		return nil, err
	}
	return spec.Job(c)
}

// layerCounts reads the per-layer counts of a traced session from the
// service's public endpoints: each job's decision audit (GET
// /v1/trace/{id}), whose planning wall time is attached to the job's
// handler span, plus the cache counters and the epoch count.
func (w *scheddWorkload) layerCounts(out *passResult, ids []string, handlerSpans []int, t *tracer) error {
	for k, jid := range ids {
		var tr obs.Trace
		if err := w.get("/v1/trace/"+jid, &tr); err != nil {
			return err
		}
		for _, sp := range tr.Spans {
			a := sp.Audit
			if sp.Kind != obs.SpanPlan || a == nil {
				continue
			}
			t.attr(handlerSpans[k], attrPlanS, a.WallSeconds)
			out.count("scheduler.exact_evals", a.ExactEvals)
			out.count("scheduler.bounded", a.Bounded)
			out.count("scheduler.pruned", a.Pruned)
			out.sample("service.live_jobs", float64(a.QueueDepth))
		}
	}
	m, err := w.scrape("schedd_plan_cache_hits_total", "schedd_plan_cache_misses_total",
		"schedd_plan_cache_invalid_total", "schedd_epochs_total")
	if err != nil {
		return err
	}
	out.counts["service.cache_hits"] += m["schedd_plan_cache_hits_total"]
	out.counts["service.cache_misses"] += m["schedd_plan_cache_misses_total"]
	out.counts["service.cache_invalid"] += m["schedd_plan_cache_invalid_total"]
	out.counts["service.epochs"] += m["schedd_epochs_total"]
	return nil
}
