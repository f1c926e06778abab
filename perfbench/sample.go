package main

import (
	"math"

	"delaystage/internal/dag"
	"delaystage/internal/trace"
)

// Stage-count bounds of the strata above smallStages; jobs up to
// smallStages are stratified by exact stage and parallel-stage counts.
var (
	smallStages = 15
	tailBounds  = []int{40, 60, 80, 100, 120, 140, 160, math.MaxInt}
)

// The strata's shares are taken from a fixed reference pool of refJobs
// jobs generated with refSeed.
const refSeed, refJobs = 0, 10000

// stratum keys a trace job by its planning cost. Alg. 1's work grows with
// the square of a job's stage count, and on small jobs with how many of
// its stages are parallel (a chain has none, so Alg. 1 has nothing to
// scan).
func stratum(j *trace.Job) [2]int {
	n := len(j.Stages)
	if n > smallStages {
		for k, b := range tailBounds {
			if n <= b {
				return [2]int{smallStages + 1 + k, -1}
			}
		}
	}
	g, err := j.Graph()
	if err != nil {
		return [2]int{n, -1}
	}
	r, err := dag.NewReachability(g)
	if err != nil {
		return [2]int{n, -1}
	}
	return [2]int{n, len(dag.ParallelStages(g, r))}
}

// minStratum is the fewest reference jobs a (stages, parallel stages)
// stratum needs to stand alone; rarer ones merge into their stage count.
const minStratum = 30

// sampleTrace draws about n synthetic trace jobs whose mix of strata is
// the same for every seed. The few 100+-stage jobs dominate a pass; if each
// seed drew their number freely, one seed's pass would do tens of percent
// more work than the next. The seed still picks every job and its arrival
// time: sampleTrace generates a seeded pool of trace.Generate jobs and
// takes each stratum's quota — its share of a fixed reference pool times
// n — at evenly spaced positions among that stratum's pool jobs, in
// arrival order, so every stratum spans the whole trace. The pool is large
// enough that the rarest stratum fills its quota with four standard
// deviations to spare; should a stratum still come up short, the pool
// doubles, up to 16n jobs.
func sampleTrace(n int, seed int64) *trace.Trace {
	ref := trace.Generate(trace.GenConfig{Jobs: refJobs, Seed: refSeed})
	count := map[[2]int]int{}
	for i := range ref.Jobs {
		count[stratum(&ref.Jobs[i])]++
	}
	key := func(j *trace.Job) [2]int {
		k := stratum(j)
		if count[k] < minStratum {
			k[1] = -1
		}
		return k
	}
	quota := map[[2]int]int{}
	for k, c := range count {
		if c < minStratum {
			k[1] = -1
		}
		quota[k] += c
	}
	for k, c := range quota {
		quota[k] = int(math.Round(float64(c) * float64(n) / refJobs))
	}
	var pool *trace.Trace
	members := map[[2]int][]int{} // stratum → pool indices, in arrival order
	rarest := float64(minStratum) / refJobs
	for size := n + int(4*math.Sqrt(float64(n)/rarest)); ; size *= 2 {
		pool = trace.Generate(trace.GenConfig{Jobs: size, Seed: seed})
		clear(members)
		for i := range pool.Jobs {
			k := key(&pool.Jobs[i])
			members[k] = append(members[k], i)
		}
		short := false
		for k, q := range quota {
			short = short || len(members[k]) < q
		}
		if !short || size >= 16*n {
			break
		}
	}
	keep := make([]bool, len(pool.Jobs))
	for k, q := range quota {
		m := members[k]
		for j := 0; j < q && j < len(m); j++ {
			keep[m[(2*j+1)*len(m)/(2*q)]] = true
		}
	}
	out := &trace.Trace{}
	for i, j := range pool.Jobs {
		if keep[i] {
			out.Jobs = append(out.Jobs, j)
		}
	}
	return out
}

// warmIndices picks up to w jobs to warm up on: the first ones with 6 to
// 40 stages, large enough to run every layer and small enough that the
// warm-up costs about the same for every seed.
func warmIndices(tr *trace.Trace, w int) []int {
	var idx []int
	for i := range tr.Jobs {
		if n := len(tr.Jobs[i].Stages); n > 5 && n <= 40 {
			if idx = append(idx, i); len(idx) == w {
				break
			}
		}
	}
	return idx
}
