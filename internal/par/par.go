// Package par runs the independent jobs of a set-up pass — one per column of
// the source database — over the cores the process has. The preprocessing
// builders (mem.Analyze, bayes.Train, colexec.New) share it, so "how many
// workers" and "what happens when one panics" are decided in one place.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do calls job(i) once for every i in [0, n) and returns when all calls have
// returned. Jobs must be independent of one another and write only to what
// index i owns (typically results[i]); the caller installs the results in
// index order afterwards, so what is built does not depend on the core count.
//
// The worker count is GOMAXPROCS at call time, at most n. With one worker the
// jobs run as a plain loop on the caller's goroutine. A panic in a job stops
// the hand-out of further jobs and is re-raised, with its original value, on
// the caller once the jobs already running have returned.
func Do(n int, job func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var (
		next     atomic.Int64 // next index to hand out
		wg       sync.WaitGroup
		once     sync.Once
		panicked any
	)
	work := func() {
		defer wg.Done()
		defer func() {
			if rec := recover(); rec != nil {
				once.Do(func() { panicked = rec })
				next.Store(int64(n))
			}
		}()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			job(i)
		}
	}
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work()
	}
	work() // the caller is a worker too
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
