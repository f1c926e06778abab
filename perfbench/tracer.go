package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span names: one per layer boundary the benchmark crosses. Each span
// wraps a call the benchmark itself makes into the layer's public
// function; nothing inside the program is instrumented.
const (
	spanJob      = "bench.job"            // one replayed job (convert + plan + both sims)
	spanParse    = "trace.Parse"          // trace ingestion of the whole CSV
	spanConvert  = "trace.Job.Workload"   // trace job → simulator workload
	spanCompute  = "core.Compute"         // Alg. 1
	spanSimRun   = "sim.Run"              // one fluid simulation
	spanPost     = "http.POST"            // client round trip of POST /v1/jobs
	spanHandler  = "service.Handler"      // server side of the same request
	spanDrain    = "service.Drain"        // data plane run to completion
	spanDecode   = "jobspec.decode"       // request body → workload, as the handler does it
	attrEvents   = "events"               // sim.Run spans: simulation events processed
	attrPlanS    = "plan_s"               // handler spans: decision-audit planning wall time
	reqIDHeader  = "X-Bench-Request-Id"   // client span ID, the handler span's parent
	spanIDHeader = "X-Bench-Handler-Span" // handler span ID, echoed to the client
	noSpan       = -1
)

// span is one timed call. Times are nanoseconds since the tracer started.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Self   int64              `json:"self_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory. A nil *tracer is valid and records
// nothing, so the untraced run pays one nil check per call site. The HTTP
// handler span is recorded from the server's goroutine, hence the mutex.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) attr(id int, key string, v float64) {
	if t == nil || id == noSpan {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	if s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	s.Attrs[key] = v
}

// finish computes every span's self time — its duration minus the part of
// it that its children cover — and returns the spans. Call it once, after
// the traced section, when no request is in flight.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i := range t.spans {
		if p := t.spans[i].Parent; p != noSpan {
			children[p] = append(children[p], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, reach), min(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
	return t.spans
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
