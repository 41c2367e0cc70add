package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"prism/internal/sentinel"
)

// Priority classes of a request, in descending order of urgency. The
// weighted-fair dispatcher favours higher classes proportionally to their
// weight but never starves a lower one.
type Priority int

const (
	// PriorityInteractive is a human in the loop: session refine rounds.
	PriorityInteractive Priority = iota
	// PriorityNormal is a one-shot discovery round (the default).
	PriorityNormal
	// PriorityBatch is bulk traffic: benchmarks, load tests, crawlers.
	PriorityBatch

	numPriorities
)

// Dispatch weights of the priority classes: at a contended slot,
// interactive traffic is admitted 8× as often as batch and 2× as often as
// normal traffic (stride scheduling, so lower classes still progress).
var priorityWeights = [numPriorities]int64{8, 4, 1}

// String returns the wire name of the priority ("interactive", "normal",
// "batch").
func (p Priority) String() string {
	switch p {
	case PriorityInteractive:
		return "interactive"
	case PriorityNormal:
		return "normal"
	case PriorityBatch:
		return "batch"
	}
	return fmt.Sprintf("priority(%d)", int(p))
}

// ParsePriority parses a wire priority name; the empty string is
// PriorityNormal.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "":
		return PriorityNormal, nil
	case "interactive":
		return PriorityInteractive, nil
	case "normal":
		return PriorityNormal, nil
	case "batch":
		return PriorityBatch, nil
	}
	return PriorityNormal, fmt.Errorf("serve: unknown priority %q (want interactive, normal or batch)", s)
}

// Priorities lists the classes in dispatch order (for stats rendering).
func Priorities() []Priority {
	return []Priority{PriorityInteractive, PriorityNormal, PriorityBatch}
}

// Config tunes a Controller. The zero value of every field selects a
// sensible default.
type Config struct {
	// MaxConcurrent bounds rounds running at once across all tenants
	// (default 2×GOMAXPROCS: a round validates one filter at a time on one
	// goroutine, so that is two rounds per core).
	MaxConcurrent int
	// MaxPerTenant bounds rounds running at once for one tenant (default
	// MaxConcurrent, i.e. a single tenant may fill the server when it is
	// otherwise idle; lower it to reserve headroom).
	MaxPerTenant int
	// MaxQueue bounds requests waiting for admission across all tenants;
	// beyond it requests are shed immediately (default 8×MaxConcurrent).
	MaxQueue int
	// QueueTimeout bounds how long a request may wait for admission
	// before it is shed (default 5s). A request whose context deadline is
	// nearer than this contributes to the deadline-aware shedding: when
	// every slot is busy and the deadline cannot plausibly be met, it is
	// shed immediately instead of queued to die.
	QueueTimeout time.Duration
}

// retryAfter is the base client back-off hint returned with shed requests;
// the effective hint grows with queue depth.
const retryAfter = time.Second

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxPerTenant <= 0 || c.MaxPerTenant > c.MaxConcurrent {
		c.MaxPerTenant = c.MaxConcurrent
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 8 * c.MaxConcurrent
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 5 * time.Second
	}
	return c
}

// waiter is one queued admission request.
type waiter struct {
	tenant string
	pri    Priority
	// ready receives exactly one value: nil on admission, or the shed
	// error. Buffered so the dispatcher never blocks on an abandoned
	// waiter.
	ready chan error
	// elem locates the waiter in its tenant queue for O(1) removal on
	// cancellation.
	elem *list.Element
}

// tenantCounters aggregates the per-tenant admission statistics.
type tenantCounters struct {
	admitted int64
	shed     int64
	inFlight int
	queued   int
}

// classQueue holds the waiters of one priority class: per-tenant FIFOs
// served round-robin so one tenant's burst cannot starve another inside
// the class.
type classQueue struct {
	byTenant map[string]*list.List
	// order is the round-robin rotation of tenants with waiters.
	order []string
	next  int
	// pass is the stride-scheduling pass value of the class; the
	// dispatcher serves the non-empty class with the smallest pass.
	pass int64
}

func newClassQueue() *classQueue {
	return &classQueue{byTenant: make(map[string]*list.List)}
}

func (q *classQueue) empty() bool { return len(q.order) == 0 }

func (q *classQueue) push(w *waiter) {
	l, ok := q.byTenant[w.tenant]
	if !ok {
		l = list.New()
		q.byTenant[w.tenant] = l
		q.order = append(q.order, w.tenant)
	}
	w.elem = l.PushBack(w)
}

// pop removes and returns the next waiter whose tenant eligible() accepts,
// rotating fairly across tenants; nil when no tenant is eligible.
func (q *classQueue) pop(eligible func(tenant string) bool) *waiter {
	for i := 0; i < len(q.order); i++ {
		idx := (q.next + i) % len(q.order)
		tenant := q.order[idx]
		if !eligible(tenant) {
			continue
		}
		l := q.byTenant[tenant]
		w := l.Remove(l.Front()).(*waiter)
		w.elem = nil
		if l.Len() == 0 {
			delete(q.byTenant, tenant)
			q.order = append(q.order[:idx], q.order[idx+1:]...)
			if q.next > idx {
				q.next--
			}
			if len(q.order) > 0 {
				q.next %= len(q.order)
			} else {
				q.next = 0
			}
		} else {
			// Advance past the served tenant.
			q.next = (idx + 1) % len(q.order)
		}
		return w
	}
	return nil
}

// remove unlinks an abandoned waiter (cancelled or timed out) from the
// class; reports whether it was still queued.
func (q *classQueue) remove(w *waiter) bool {
	if w.elem == nil {
		return false
	}
	l, ok := q.byTenant[w.tenant]
	if !ok {
		return false
	}
	l.Remove(w.elem)
	w.elem = nil
	if l.Len() == 0 {
		delete(q.byTenant, w.tenant)
		for i, t := range q.order {
			if t == w.tenant {
				q.order = append(q.order[:i], q.order[i+1:]...)
				if q.next > i {
					q.next--
				}
				break
			}
		}
		if len(q.order) > 0 {
			q.next %= len(q.order)
		} else {
			q.next = 0
		}
	}
	return true
}

// Controller is the admission controller: a bounded global budget of
// concurrent rounds with per-tenant budgets, a weighted-fair queue across
// priority classes, and immediate load shedding once the queue is beyond
// help. The zero Controller is not usable; construct with NewController.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	draining bool
	inFlight int
	queued   int
	classes  [numPriorities]*classQueue
	tenants  map[string]*tenantCounters
	// lifetime counters
	admitted int64
	shed     int64
	drained  int64
}

// NewController creates a Controller from cfg (zero fields take defaults;
// see Config).
func NewController(cfg Config) *Controller {
	c := &Controller{cfg: cfg.withDefaults(), tenants: make(map[string]*tenantCounters)}
	for i := range c.classes {
		c.classes[i] = newClassQueue()
	}
	return c
}

func (c *Controller) tenant(name string) *tenantCounters {
	t, ok := c.tenants[name]
	if !ok {
		t = &tenantCounters{}
		c.tenants[name] = t
	}
	return t
}

// hasCapacityLocked reports whether tenant can start a round right now.
func (c *Controller) hasCapacityLocked(tenant string) bool {
	return c.inFlight < c.cfg.MaxConcurrent && c.tenant(tenant).inFlight < c.cfg.MaxPerTenant
}

// admitLocked marks one round of tenant as running.
func (c *Controller) admitLocked(tenant string) {
	c.inFlight++
	c.admitted++
	t := c.tenant(tenant)
	t.inFlight++
	t.admitted++
}

// shedLocked counts one shed request of tenant.
func (c *Controller) shedLocked(tenant string) {
	c.shed++
	c.tenant(tenant).shed++
}

// Admit blocks until the request is admitted, shed, or abandoned, and
// returns the release function of the admitted slot (call it exactly once,
// when the round finishes). It sheds with sentinel.ErrOverloaded when the queue is
// already beyond its deadline-aware depth or the request waits out
// QueueTimeout, with sentinel.ErrDraining when the controller is draining, and with
// ctx.Err() when the caller gives up first.
func (c *Controller) Admit(ctx context.Context, tenant string, pri Priority) (release func(), err error) {
	if err := faultAdmit.Hit(); err != nil {
		// Injected before any counter moves: an injected admission
		// failure reads as a shed to the caller without skewing the
		// admitted/shed accounting the stats tests pin.
		return nil, fmt.Errorf("%w: %v", sentinel.ErrOverloaded, err)
	}
	if pri < 0 || pri >= numPriorities {
		pri = PriorityNormal
	}
	c.mu.Lock()
	if c.draining {
		c.drained++
		c.mu.Unlock()
		return nil, sentinel.ErrDraining
	}
	// Fast path: a free slot and nobody queued ahead.
	if c.queued == 0 && c.hasCapacityLocked(tenant) {
		c.admitLocked(tenant)
		c.mu.Unlock()
		return c.releaseFunc(tenant), nil
	}
	// Shed instead of queueing when the queue is full, or when the
	// caller's own deadline is so near that waiting cannot plausibly help
	// (the deadline-aware part: a request that would die in the queue is
	// rejected now, while the client can still retry elsewhere).
	shed := c.queued >= c.cfg.MaxQueue
	if !shed {
		if deadline, ok := ctx.Deadline(); ok {
			if remaining := time.Until(deadline); remaining < c.queueWaitFloorLocked() {
				shed = true
			}
		}
	}
	if shed {
		c.shedLocked(tenant)
		c.mu.Unlock()
		return nil, fmt.Errorf("%w (queue depth %d)", sentinel.ErrOverloaded, c.queued)
	}
	w := &waiter{tenant: tenant, pri: pri, ready: make(chan error, 1)}
	c.classes[pri].push(w)
	c.queued++
	c.tenant(tenant).queued++
	// A new waiter can be immediately dispatchable even though the queue
	// is non-empty — e.g. a free slot that every queued tenant is too
	// capped to use — so dispatch on enqueue, not only on release.
	c.dispatchLocked()
	c.mu.Unlock()

	timer := time.NewTimer(c.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case err := <-w.ready:
		if err != nil {
			return nil, err
		}
		return c.releaseFunc(tenant), nil
	case <-ctx.Done():
		return c.abandon(w, ctx.Err())
	case <-timer.C:
		return c.abandon(w, fmt.Errorf("%w (queued longer than %v)", sentinel.ErrOverloaded, c.cfg.QueueTimeout))
	}
}

// queueWaitFloorLocked estimates the minimum plausible queue wait: with
// every slot busy, at least one round must finish per queued request ahead.
// It is deliberately coarse (QueueTimeout scaled by queue fullness) — the
// point is to reject requests whose deadline a full queue clearly cannot
// meet, not to predict latency.
func (c *Controller) queueWaitFloorLocked() time.Duration {
	if c.queued == 0 {
		return 0
	}
	return c.cfg.QueueTimeout * time.Duration(c.queued) / time.Duration(c.cfg.MaxQueue)
}

// abandon resolves the race between a waiter giving up and the dispatcher
// admitting it: if the slot was already granted it is re-released, so no
// capacity leaks.
func (c *Controller) abandon(w *waiter, cause error) (func(), error) {
	c.mu.Lock()
	if c.classes[w.pri].remove(w) {
		c.queued--
		c.tenant(w.tenant).queued--
		if errors.Is(cause, sentinel.ErrOverloaded) {
			c.shedLocked(w.tenant)
		}
		c.mu.Unlock()
		return nil, cause
	}
	c.mu.Unlock()
	// The dispatcher resolved the waiter concurrently; its verdict is on
	// the (buffered) channel.
	if err := <-w.ready; err != nil {
		return nil, err
	}
	// Admitted after all — but the caller is abandoning, so hand the slot
	// straight back.
	c.releaseFunc(w.tenant)()
	return nil, cause
}

// releaseFunc returns the idempotent release of one admitted slot.
func (c *Controller) releaseFunc(tenant string) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			c.inFlight--
			c.tenant(tenant).inFlight--
			c.dispatchLocked()
			c.mu.Unlock()
		})
	}
}

// dispatchLocked hands freed slots to queued waiters: the non-empty
// priority class with the smallest stride pass wins each slot (weighted
// fair — interactive 8×, normal 4×, batch 1×), and tenants rotate
// round-robin inside a class, skipping tenants at their per-tenant cap.
func (c *Controller) dispatchLocked() {
	for c.inFlight < c.cfg.MaxConcurrent && c.queued > 0 {
		// Pick the eligible class with the smallest pass value.
		best := Priority(-1)
		for pri := Priority(0); pri < numPriorities; pri++ {
			if c.classes[pri].empty() {
				continue
			}
			if best < 0 || c.classes[pri].pass < c.classes[best].pass {
				best = pri
			}
		}
		if best < 0 {
			return
		}
		w := c.classes[best].pop(c.hasCapacityLocked)
		if w == nil {
			// Every waiting tenant of the best class is at its cap; let
			// the other classes compete for the slot.
			served := false
			for pri := Priority(0); pri < numPriorities; pri++ {
				if pri == best || c.classes[pri].empty() {
					continue
				}
				if w = c.classes[pri].pop(c.hasCapacityLocked); w != nil {
					best = pri
					served = true
					break
				}
			}
			if !served {
				return
			}
		}
		c.classes[best].pass += strideUnit / priorityWeights[best]
		c.queued--
		c.tenant(w.tenant).queued--
		c.admitLocked(w.tenant)
		w.ready <- nil
	}
}

// strideUnit is the stride-scheduling numerator; weights divide it.
const strideUnit = int64(1 << 20)

// Drain flushes every queued waiter with sentinel.ErrDraining and makes all future
// Admit calls fail fast with it. Rounds already admitted are unaffected —
// the caller lets them finish (graceful shutdown) or cancels their
// contexts (hard stop). Drain is idempotent.
func (c *Controller) Drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return
	}
	c.draining = true
	for pri := Priority(0); pri < numPriorities; pri++ {
		q := c.classes[pri]
		for {
			w := q.pop(func(string) bool { return true })
			if w == nil {
				break
			}
			c.queued--
			c.tenant(w.tenant).queued--
			c.drained++
			w.ready <- sentinel.ErrDraining
		}
	}
}

// RetryAfter returns the back-off hint for a shed request: the base hint
// scaled up with queue fullness, in whole seconds (the HTTP Retry-After
// granularity).
func (c *Controller) RetryAfter() time.Duration {
	c.mu.Lock()
	queued := c.queued
	c.mu.Unlock()
	return retryAfter * time.Duration(1+queued/c.cfg.MaxConcurrent)
}

// TenantSnapshot is the admission view of one tenant.
type TenantSnapshot struct {
	Tenant   string
	Admitted int64
	Shed     int64
	InFlight int
	Queued   int
}

// Snapshot is a point-in-time view of the controller.
type Snapshot struct {
	MaxConcurrent int
	MaxPerTenant  int
	MaxQueue      int
	InFlight      int
	QueueDepth    int
	Admitted      int64
	Shed          int64
	Drained       int64
	Draining      bool
	// Tenants is sorted by tenant name.
	Tenants []TenantSnapshot
}

// Snapshot returns the controller's current counters.
func (c *Controller) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		MaxConcurrent: c.cfg.MaxConcurrent,
		MaxPerTenant:  c.cfg.MaxPerTenant,
		MaxQueue:      c.cfg.MaxQueue,
		InFlight:      c.inFlight,
		QueueDepth:    c.queued,
		Admitted:      c.admitted,
		Shed:          c.shed,
		Drained:       c.drained,
		Draining:      c.draining,
	}
	for name, t := range c.tenants {
		s.Tenants = append(s.Tenants, TenantSnapshot{
			Tenant:   name,
			Admitted: t.admitted,
			Shed:     t.shed,
			InFlight: t.inFlight,
			Queued:   t.queued,
		})
	}
	sort.Slice(s.Tenants, func(i, j int) bool { return s.Tenants[i].Tenant < s.Tenants[j].Tenant })
	return s
}
