package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"delaystage/internal/dag"
)

// maxProblems caps the failed checks a pass keeps verbatim.
const maxProblems = 5

// passResult is the outcome of one pass over a workload's fixed job set.
// Everything but the host timings is a function of the seed alone, so
// every pass of one run — and every run of one commit — must agree.
type passResult struct {
	jobs  int           // jobs attempted
	ok    int           // jobs that planned, simulated and passed every check
	timed time.Duration // host time of the timed section
	steal float64       // share of the host's CPU time stolen during the pass
	latMS []float64     // per-job host latency, ms

	planJCT, stockJCT float64 // simulated JCT totals under the plans and under stock
	floatDiffs        int     // schedd: JCTs not bit-identical to one continuous simulation
	digest            hash.Hash64
	counts            map[string]float64   // per-layer work counts
	samples           map[string][]float64 // per-layer per-job observations
	problems          []string             // failed checks, at most maxProblems
	nProblems         int
}

func newPassResult() *passResult {
	return &passResult{digest: fnv.New64a(), counts: map[string]float64{}, samples: map[string][]float64{}}
}

func (p *passResult) problem(format string, a ...any) {
	p.nProblems++
	if len(p.problems) < maxProblems {
		p.problems = append(p.problems, fmt.Sprintf(format, a...))
	}
}

func (p *passResult) count(name string, n int) { p.counts[name] += float64(n) }

func (p *passResult) sample(name string, v float64) { p.samples[name] = append(p.samples[name], v) }

func (p *passResult) digestFloat(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	p.digest.Write(b[:])
}

// digestJob folds one job's JCT and delay vector (in stage order) into
// the pass digest.
func (p *passResult) digestJob(jct float64, delays map[dag.StageID]float64) {
	p.digestFloat(jct)
	ids := make([]int, 0, len(delays))
	for id := range delays {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	p.digestFloat(float64(len(ids)))
	for _, id := range ids {
		p.digestFloat(float64(id))
		p.digestFloat(delays[dag.StageID(id)])
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// percentile is the p-th percentile (0–100) of xs by linear interpolation
// between closest ranks; 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
