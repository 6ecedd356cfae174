package sim

import (
	"fmt"
	"runtime"
	"sync"
)

// Job is one self-contained unit of an experiment fan-out — typically
// "build one engine from its own config and seed and drive it to a stop
// condition". Run must own everything it touches (generator, engine,
// RNG state): jobs execute concurrently and the determinism guarantee of
// RunJobs rests on jobs sharing no mutable state. Every engine in this
// package already satisfies that — each carries its own seed, device and
// workload — which is what makes the experiments embarrassingly
// parallel.
type Job[T any] struct {
	// Name labels the job in error reports.
	Name string
	// Run produces the job's value and the number of simulated writes
	// (or workload draws) it serviced, for throughput accounting.
	Run func() (value T, writes uint64, err error)
}

// Result is one job's outcome, delivered in the job's submission slot
// regardless of completion order.
type Result[T any] struct {
	// Name echoes the job's name.
	Name string
	// Value is the job's product; the zero value when Err is set.
	Value T
	// Writes is the simulated write count the job reported.
	Writes uint64
	// Err is the job's failure, wrapped with its name.
	Err error
}

// RunJobs executes jobs on a pool of workers goroutines and returns the
// results in job order. workers <= 1 runs the jobs serially on the
// calling goroutine in submission order — exactly the legacy loop the
// experiments used. Because each job is deterministic given its own
// seed and shares nothing, the returned results are identical for every
// workers value; the parallel-vs-serial equivalence test enforces it.
func RunJobs[T any](jobs []Job[T], workers int) []Result[T] {
	results := make([]Result[T], len(jobs))
	if workers <= 1 || len(jobs) <= 1 {
		for i := range jobs {
			results[i] = runJob(jobs[i])
			if len(jobs) > 1 {
				// Return the finished job's engine (hundreds of MB at paper
				// scale) before the next one builds, keeping the process's
				// peak RSS at the single-job watermark.
				runtime.GC()
			}
		}
		return results
	}
	fanOut(workers, len(jobs), func(i int) { results[i] = runJob(jobs[i]) })
	return results
}

// fanOut calls fn(0) … fn(n-1) on up to workers concurrent goroutines
// and returns once all calls finished. workers <= 1 (or n <= 1) makes
// the calls serially on the calling goroutine, in index order. It is
// the one fan-out loop in the repository: RunJobs fans independent
// engines out across an experiment, and the sharded batch loop fans the
// independent address-space shards of ONE engine out within a batch,
// this call being its merge barrier. The same argument keeps both
// deterministic: the units share no mutable state, and the caller
// merges their results in a fixed order after the barrier, so
// scheduling can only change timing, never output.
//
// Workers are spawned per call rather than kept in a persistent pool:
// one shard batch is millions of writes at paper scale, so the spawn
// cost is noise (see BenchmarkShardMergeBarrier), and there is no pool
// lifecycle to leak or to tear down on every early return.
func fanOut(workers, n int, fn func(i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// runJob executes one job, folding its name into any error.
func runJob[T any](j Job[T]) Result[T] {
	r := Result[T]{Name: j.Name}
	r.Value, r.Writes, r.Err = j.Run()
	if r.Err != nil {
		r.Err = fmt.Errorf("%s: %w", j.Name, r.Err)
	}
	return r
}

// CollectJobs runs the jobs and returns just the values in job order,
// failing on the first job error (in job order, so which error surfaces
// does not depend on scheduling). TotalWrites sums the write counts.
func CollectJobs[T any](jobs []Job[T], workers int) (values []T, totalWrites uint64, err error) {
	return collectResults(RunJobs(jobs, workers))
}

// collectResults is CollectJobs over results already run.
func collectResults[T any](results []Result[T]) (values []T, totalWrites uint64, err error) {
	values = make([]T, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, 0, r.Err
		}
		values[i] = r.Value
		totalWrites += r.Writes
	}
	return values, totalWrites, nil
}
