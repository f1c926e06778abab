package main

import (
	"runtime"
	"time"
)

// layer is one span name's cost per traced pass: calls, total time and
// self time (total minus the time its child spans cover).
type layer struct {
	Calls  float64 `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func layerTable(spans []span, passes int) map[string]layer {
	out := map[string]layer{}
	n := float64(passes)
	for i := range spans {
		s := &spans[i]
		l := out[s.Name]
		l.Calls += 1 / n
		l.TotalS += s.dur().Seconds() / n
		l.SelfS += time.Duration(s.Self).Seconds() / n
		out[s.Name] = l
	}
	return out
}

// perLayer derives the per-layer metrics of a traced run. Times ending in
// _s are seconds per pass; _ms_pNN are percentiles over single calls;
// counts are those of one pass (every pass repeats them exactly). plain
// are the untraced passes of the same run, for the tracing overhead.
func perLayer(spans []span, plain, traced []*passResult, m0, m1 runtime.MemStats) map[string]metric {
	n := float64(len(traced))
	durMS := map[string][]float64{} // span name → call durations, ms
	var events, simS float64
	var planMS, postSelfMS []float64
	for i := range spans {
		s := &spans[i]
		ms := s.dur().Seconds() * 1e3
		durMS[s.Name] = append(durMS[s.Name], ms)
		switch s.Name {
		case spanSimRun:
			events += s.Attrs[attrEvents]
			simS += ms / 1e3
		case spanHandler:
			if v, ok := s.Attrs[attrPlanS]; ok {
				planMS = append(planMS, v*1e3)
			}
		case spanPost:
			postSelfMS = append(postSelfMS, time.Duration(s.Self).Seconds()*1e3)
		}
	}
	perPass := func(name string) float64 { return sum(durMS[name]) / 1e3 / n }
	c := traced[0].counts
	planS := sum(planMS) / 1e3 / n
	handlerS := perPass(spanHandler)
	var timed time.Duration
	for _, p := range traced {
		timed += p.timed
	}
	_, _, untracedRate := medianPass(undisturbed(plain, 1))
	_, _, tracedRate := medianPass(undisturbed(traced, 1))
	live := traced[0].samples["service.live_jobs"]
	liveMax := 0.0
	for _, v := range live {
		liveMax = max(liveMax, v)
	}
	const s, ms, count, r = "s", "ms", "count", "ratio"
	return map[string]metric{
		"bench.pass_s":          {timed.Seconds() / n, s},
		"trace.overhead_pct":    {100 * (untracedRate - tracedRate) / untracedRate, "%"},
		"core.compute_s":        {perPass(spanCompute), s},
		"core.compute_ms_p50":   {percentile(durMS[spanCompute], 50), ms},
		"core.compute_ms_p90":   {percentile(durMS[spanCompute], 90), ms},
		"core.evaluations":      {c["core.evaluations"], count},
		"core.exact_evals":      {c["core.exact_evals"], count},
		"core.cache_hits":       {c["core.cache_hits"], count},
		"core.forked_evals":     {c["core.forked_evals"], count},
		"core.full_evals":       {c["core.full_evals"], count},
		"core.worse_than_stock": {c["core.worse_than_stock"], count},
		"perfmodel.bounded":     {c["perfmodel.bounded"], count},
		"perfmodel.pruned":      {c["perfmodel.pruned"], count},
		"perfmodel.prune_ratio": {ratio(c["perfmodel.pruned"], c["perfmodel.bounded"]), r},
		"sim.run_s":             {simS / n, s},
		"sim.events":            {c["sim.events"], count},
		"sim.events_per_s":      {ratio(events, simS), "1/s"},
		"trace.parse_s":         {perPass(spanParse), s},
		"trace.convert_s":       {perPass(spanConvert), s},
		"scheduler.plan_s":      {planS, s},
		"scheduler.plan_ms_p50": {percentile(planMS, 50), ms},
		"scheduler.plan_ms_p90": {percentile(planMS, 90), ms},
		"scheduler.exact_evals": {c["scheduler.exact_evals"], count},
		"scheduler.pruned":      {c["scheduler.pruned"], count},
		"scheduler.prune_ratio": {ratio(c["scheduler.pruned"], c["scheduler.bounded"]), r},
		"service.cache_hits":    {c["service.cache_hits"], count},
		"service.cache_misses":  {c["service.cache_misses"], count},
		"service.cache_invalid": {c["service.cache_invalid"], count},
		"service.cache_hit_ratio": {ratio(c["service.cache_hits"],
			c["service.cache_hits"]+c["service.cache_misses"]), r},
		"service.handler_s":      {handlerS, s},
		"service.handler_ms_p50": {percentile(durMS[spanHandler], 50), ms},
		"service.handler_ms_p90": {percentile(durMS[spanHandler], 90), ms},
		"service.dataplane_s":    {handlerS - planS - perPass(spanDecode), s},
		"service.live_jobs_p50":  {percentile(live, 50), count},
		"service.live_jobs_max":  {liveMax, count},
		"service.epochs":         {c["service.epochs"], count},
		"service.drain_s":        {perPass(spanDrain), s},
		"http.overhead_ms_p50":   {percentile(postSelfMS, 50), ms},
		"jobspec.decode_ms_p50":  {percentile(durMS[spanDecode], 50), ms},
		"runtime.alloc_mb":       {float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / n, "MB"},
		"runtime.gc_cycles":      {float64(m1.NumGC-m0.NumGC) / n, count},
	}
}
