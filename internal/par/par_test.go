package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func setProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestDoRunsEveryJobOnce: every index is handed out exactly once at any
// core count, including more cores than jobs and no jobs at all.
func TestDoRunsEveryJobOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 2, 7, 100} {
			t.Run(fmt.Sprintf("procs=%d/n=%d", procs, n), func(t *testing.T) {
				setProcs(t, procs)
				ran := make([]atomic.Int32, n)
				Do(n, func(i int) { ran[i].Add(1) })
				for i := range ran {
					if got := ran[i].Load(); got != 1 {
						t.Errorf("job %d ran %d times", i, got)
					}
				}
			})
		}
	}
}

// TestDoIsADirectLoopWithoutParallelism: with one core or one job, the jobs
// run in index order with no synchronisation, i.e. on the caller's
// goroutine — unsynchronised writes to shared state pass the race detector.
func TestDoIsADirectLoopWithoutParallelism(t *testing.T) {
	setProcs(t, 1)
	var order []int
	Do(5, func(i int) { order = append(order, i) })
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Errorf("order at one core = %v", order)
	}
	setProcs(t, 8)
	order = nil
	Do(1, func(i int) { order = append(order, i) })
	if fmt.Sprint(order) != "[0]" {
		t.Errorf("order of one job = %v", order)
	}
}

// TestDoReraisesWorkerPanic: a panic in any job — on a worker goroutine or
// on the caller's own share — surfaces on the caller with its value, after
// every started job has returned, and stops further jobs from starting.
func TestDoReraisesWorkerPanic(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			setProcs(t, procs)
			const n = 10_000
			var started, finished atomic.Int32
			boom := fmt.Errorf("boom")
			got := func() (rec any) {
				defer func() { rec = recover() }()
				Do(n, func(i int) {
					started.Add(1)
					defer finished.Add(1)
					if i == 3 {
						panic(boom)
					}
				})
				return nil
			}()
			if got != boom {
				t.Fatalf("recovered %v, want the job's own panic value", got)
			}
			if started.Load() != finished.Load() {
				t.Errorf("%d jobs started, %d returned before Do did", started.Load(), finished.Load())
			}
			if started.Load() == n {
				t.Error("every job still ran after one panicked")
			}
		})
	}
}
