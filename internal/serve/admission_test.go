package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"prism/internal/sentinel"
)

func mustAdmit(t *testing.T, c *Controller, tenant string, pri Priority) func() {
	t.Helper()
	release, err := c.Admit(context.Background(), tenant, pri)
	if err != nil {
		t.Fatalf("Admit(%s, %v): %v", tenant, pri, err)
	}
	return release
}

func TestAdmitFastPathAndRelease(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 2})
	r1 := mustAdmit(t, c, "a", PriorityNormal)
	r2 := mustAdmit(t, c, "b", PriorityNormal)
	snap := c.Snapshot()
	if snap.InFlight != 2 || snap.Admitted != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	r1()
	r1() // release is idempotent
	r2()
	if snap := c.Snapshot(); snap.InFlight != 0 {
		t.Fatalf("in-flight after release = %d", snap.InFlight)
	}
}

func TestShedImmediatelyWhenQueueFull(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: time.Minute})
	release := mustAdmit(t, c, "a", PriorityNormal)
	defer release()

	// One waiter fits the queue.
	queued := make(chan error, 1)
	go func() {
		_, err := c.Admit(context.Background(), "a", PriorityNormal)
		queued <- err
	}()
	waitFor(t, func() bool { return c.Snapshot().QueueDepth == 1 })

	// The next is beyond MaxQueue: shed without waiting.
	start := time.Now()
	_, err := c.Admit(context.Background(), "a", PriorityNormal)
	if !errors.Is(err, sentinel.ErrOverloaded) {
		t.Fatalf("err = %v, want sentinel.ErrOverloaded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("immediate shed took %v", time.Since(start))
	}
	if snap := c.Snapshot(); snap.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", snap.Shed)
	}
	release()
	if err := <-queued; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
}

func TestQueueTimeoutSheds(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: 30 * time.Millisecond})
	release := mustAdmit(t, c, "a", PriorityNormal)
	defer release()
	_, err := c.Admit(context.Background(), "b", PriorityNormal)
	if !errors.Is(err, sentinel.ErrOverloaded) {
		t.Fatalf("err = %v, want sentinel.ErrOverloaded after queue timeout", err)
	}
	snap := c.Snapshot()
	if snap.Shed != 1 || snap.QueueDepth != 0 {
		t.Fatalf("snapshot after timeout = %+v", snap)
	}
}

func TestDeadlineAwareShedding(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: time.Minute})
	release := mustAdmit(t, c, "a", PriorityNormal)
	defer release()

	// Fill part of the queue so the wait floor is non-zero (deadline-less
	// fillers, so only the doomed request below is shed).
	ctxFill, cancelFill := context.WithCancel(context.Background())
	defer cancelFill()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rel, err := c.Admit(ctxFill, "a", PriorityNormal); err == nil {
				rel()
			}
		}()
	}
	waitFor(t, func() bool { return c.Snapshot().QueueDepth == 2 })

	// A request that cannot possibly be admitted before its deadline is
	// shed on arrival instead of queued to die.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Admit(ctx, "a", PriorityNormal)
	if !errors.Is(err, sentinel.ErrOverloaded) {
		t.Fatalf("err = %v, want sentinel.ErrOverloaded for doomed deadline", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("deadline-aware shed waited %v", time.Since(start))
	}
	release()
	wg.Wait()
}

func TestCancelledWaiterLeavesQueue(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: time.Minute})
	release := mustAdmit(t, c, "a", PriorityNormal)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Admit(ctx, "b", PriorityNormal)
		errc <- err
	}()
	waitFor(t, func() bool { return c.Snapshot().QueueDepth == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if snap := c.Snapshot(); snap.QueueDepth != 0 {
		t.Fatalf("queue depth after cancel = %d", snap.QueueDepth)
	}
	// The slot is intact: release it and admit someone else instantly.
	release()
	mustAdmit(t, c, "c", PriorityNormal)()
}

func TestPriorityDispatchOrder(t *testing.T) {
	// One slot, three queued waiters of different classes: the freed slot
	// must go to interactive first, then normal, then batch.
	c := NewController(Config{MaxConcurrent: 1, MaxQueue: 8, QueueTimeout: time.Minute})
	release := mustAdmit(t, c, "t", PriorityNormal)

	order := make(chan Priority, 3)
	var wg sync.WaitGroup
	// Enqueue in inverse priority order so FIFO position cannot explain
	// the outcome; wait for each to be queued before adding the next.
	depth := 0
	for _, pri := range []Priority{PriorityBatch, PriorityNormal, PriorityInteractive} {
		pri := pri
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := c.Admit(context.Background(), "t", pri)
			if err != nil {
				t.Errorf("Admit(%v): %v", pri, err)
				return
			}
			order <- pri
			rel()
		}()
		depth++
		d := depth
		waitFor(t, func() bool { return c.Snapshot().QueueDepth == d })
	}
	release()
	wg.Wait()
	close(order)
	var got []Priority
	for p := range order {
		got = append(got, p)
	}
	want := []Priority{PriorityInteractive, PriorityNormal, PriorityBatch}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", got, want)
		}
	}
}

func TestPerTenantCapDoesNotBlockOtherTenants(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 2, MaxPerTenant: 1, MaxQueue: 8, QueueTimeout: time.Minute})
	relA := mustAdmit(t, c, "a", PriorityNormal)

	// Tenant a is at its per-tenant cap; its next request queues even
	// though a global slot is free...
	aAdmitted := make(chan struct{})
	go func() {
		rel, err := c.Admit(context.Background(), "a", PriorityNormal)
		if err != nil {
			t.Errorf("queued tenant-a admit: %v", err)
			close(aAdmitted)
			return
		}
		close(aAdmitted)
		rel()
	}()
	waitFor(t, func() bool { return c.Snapshot().QueueDepth == 1 })

	// ...but tenant b takes the free slot immediately (the dispatcher
	// skips capped tenants). Because a waiter is queued, b passes through
	// the queue, not the fast path — which is exactly the case that must
	// not head-of-line block.
	done := make(chan struct{})
	go func() {
		rel, err := c.Admit(context.Background(), "b", PriorityNormal)
		if err != nil {
			t.Errorf("tenant b: %v", err)
		} else {
			defer rel()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("tenant b blocked behind capped tenant a")
	}
	relA()
	<-aAdmitted
}

func TestWeightedFairnessUnderContention(t *testing.T) {
	// Keep one slot perpetually contended by batch and interactive
	// waiters: each admitted round holds the slot briefly, so both
	// classes are always queued when it frees. Interactive (weight 8)
	// must win clearly more slots than batch (weight 1), and batch must
	// not starve.
	c := NewController(Config{MaxConcurrent: 1, MaxQueue: 64, QueueTimeout: time.Minute})
	const rounds = 90
	counts := make(map[Priority]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var stopOnce sync.Once
	worker := func(pri Priority) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rel, err := c.Admit(context.Background(), "t", pri)
			if err != nil {
				return
			}
			time.Sleep(200 * time.Microsecond) // hold the slot: force contention
			mu.Lock()
			counts[pri]++
			total := counts[PriorityInteractive] + counts[PriorityBatch]
			mu.Unlock()
			rel()
			if total >= rounds {
				stopOnce.Do(func() { close(stop) })
				return
			}
		}
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go worker(PriorityInteractive)
		wg.Add(1)
		go worker(PriorityBatch)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if counts[PriorityBatch] == 0 {
		t.Fatalf("batch starved: %v", counts)
	}
	if counts[PriorityInteractive] <= counts[PriorityBatch] {
		t.Fatalf("interactive not favoured under contention: %v", counts)
	}
}

func TestDrainFlushesQueueAndRejectsNew(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: time.Minute})
	release := mustAdmit(t, c, "a", PriorityNormal)
	errc := make(chan error, 1)
	go func() {
		_, err := c.Admit(context.Background(), "b", PriorityNormal)
		errc <- err
	}()
	waitFor(t, func() bool { return c.Snapshot().QueueDepth == 1 })

	c.Drain()
	if err := <-errc; !errors.Is(err, sentinel.ErrDraining) {
		t.Fatalf("queued waiter on drain: %v, want sentinel.ErrDraining", err)
	}
	if _, err := c.Admit(context.Background(), "c", PriorityNormal); !errors.Is(err, sentinel.ErrDraining) {
		t.Fatalf("new admit while draining: %v, want sentinel.ErrDraining", err)
	}
	// In-flight rounds are unaffected and can still release cleanly.
	release()
	snap := c.Snapshot()
	if !snap.Draining || snap.InFlight != 0 || snap.Drained != 2 {
		t.Fatalf("snapshot after drain = %+v", snap)
	}
	c.Drain() // idempotent
}

func TestRetryAfterGrowsWithQueue(t *testing.T) {
	c := NewController(Config{MaxConcurrent: 1, MaxQueue: 16, QueueTimeout: time.Minute})
	base := c.RetryAfter()
	if base != retryAfter {
		t.Fatalf("idle retry-after %v, want the base %v", base, retryAfter)
	}
	release := mustAdmit(t, c, "a", PriorityNormal)
	defer release()
	var wg sync.WaitGroup
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Admit(ctx, "a", PriorityNormal)
		}()
	}
	waitFor(t, func() bool { return c.Snapshot().QueueDepth == 8 })
	if grown := c.RetryAfter(); grown <= base {
		t.Errorf("retry-after did not grow with queue depth: base %v, at depth 8 %v", base, grown)
	}
	cancel()
	wg.Wait()
}

func TestParsePriority(t *testing.T) {
	cases := []struct {
		in      string
		want    Priority
		wantErr bool
	}{
		{"", PriorityNormal, false},
		{"interactive", PriorityInteractive, false},
		{"normal", PriorityNormal, false},
		{"batch", PriorityBatch, false},
		{"Interactive", PriorityNormal, true},
		{"bulk", PriorityNormal, true},
	}
	for _, tc := range cases {
		got, err := ParsePriority(tc.in)
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("ParsePriority(%q) = %v, %v; want %v, err=%v", tc.in, got, err, tc.want, tc.wantErr)
		}
	}
	for _, p := range Priorities() {
		back, err := ParsePriority(p.String())
		if err != nil || back != p {
			t.Errorf("round-trip %v: got %v, %v", p, back, err)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}
