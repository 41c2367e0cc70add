// Package fault is a zero-dependency registry of named fault points for
// deterministic failure injection. A fault point is declared once at
// package init (fault.Register("colexec.scan")) and hit at the call
// site (site.Hit()); while disarmed — the permanent state in
// production — a hit is a single atomic pointer load and returns nil
// without allocating, so points may sit on hot paths guarded by
// 0 allocs/op benchmarks. Tests and the chaos suite arm points with a
// deterministic Injection plan (error, panic, latency, short write)
// keyed by hit count and an optional seeded probability, exercise the
// failure edge, and disarm.
package fault

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the default error returned by an armed fault point
// whose Injection does not set Err.
var ErrInjected = errors.New("fault: injected error")

// Mode selects what an armed fault point does when an injection fires.
type Mode int

const (
	// ModeError makes Hit return Injection.Err (ErrInjected if unset).
	ModeError Mode = iota
	// ModePanic makes Hit panic with a descriptive value. Used to
	// exercise the panic-isolation seams.
	ModePanic
	// ModeDelay makes Hit sleep for Injection.Delay, then return nil.
	// Used to wedge executors under the round watchdog.
	ModeDelay
	// ModeShortWrite leaves Hit returning nil but makes writers
	// wrapped by Site.Writer truncate one write and fail. Used on
	// snapshot/stream IO seams.
	ModeShortWrite
)

// String names the mode for logs and chaos-suite output.
func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeDelay:
		return "delay"
	case ModeShortWrite:
		return "short-write"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Injection is a deterministic plan for when and how an armed point
// fires. The zero value fires ModeError with ErrInjected on every hit.
type Injection struct {
	// Mode selects the failure to inject.
	Mode Mode
	// Err is returned by ModeError hits (and wrapped into the panic
	// value for ModePanic). Defaults to ErrInjected.
	Err error
	// Delay is how long ModeDelay sleeps per firing hit.
	Delay time.Duration
	// Skip suppresses the first Skip hits after arming, so a plan can
	// target e.g. "the third read".
	Skip uint64
	// Count caps how many hits fire (after Skip); 0 means unlimited.
	// A point whose budget is exhausted behaves as disarmed.
	Count uint64
	// Prob, when in (0,1), fires each eligible hit with that
	// probability drawn from a deterministic generator seeded by
	// Seed — the same seed always yields the same firing pattern.
	Prob float64
	// Seed seeds the Prob generator.
	Seed uint64
}

// armed is the immutable per-arming state published to Hit via one
// atomic pointer; counters are atomics inside it.
type armed struct {
	inj   Injection
	hits  atomic.Uint64 // hits observed since arming
	fired atomic.Uint64 // hits that actually injected
	rng   atomic.Uint64 // xorshift state for Prob
}

// Site is one named fault point. The zero Site is invalid; obtain
// sites from Register.
type Site struct {
	name string
	arm  atomic.Pointer[armed]
}

// Name returns the registered name of the point.
func (s *Site) Name() string { return s.name }

// Hit reports whether an injection fires at this call site. Disarmed —
// the production state — it is one atomic load, returns nil, and does
// not allocate. Armed, it applies the Injection plan: it may sleep
// (ModeDelay), panic (ModePanic), or return an error (ModeError).
// ModeShortWrite plans return nil here; they act through Writer.
func (s *Site) Hit() error {
	a := s.arm.Load()
	if a == nil {
		return nil
	}
	if !a.fire() {
		return nil
	}
	switch a.inj.Mode {
	case ModePanic:
		panic(fmt.Sprintf("fault: injected panic at %s: %v", s.name, a.err()))
	case ModeDelay:
		time.Sleep(a.inj.Delay)
		return nil
	case ModeShortWrite:
		return nil
	default:
		return a.err()
	}
}

// err returns the error an armed plan injects.
func (a *armed) err() error {
	if a.inj.Err != nil {
		return a.inj.Err
	}
	return ErrInjected
}

// fire applies the Skip/Count/Prob schedule to one hit and reports
// whether it injects.
func (a *armed) fire() bool {
	n := a.hits.Add(1)
	if n <= a.inj.Skip {
		return false
	}
	if p := a.inj.Prob; p > 0 && p < 1 {
		// nextRand is uniform over [0, 2^64): fire iff rand/2^64 < p.
		if float64(a.nextRand())/(1<<64) >= p {
			return false
		}
	}
	if a.inj.Count > 0 && a.fired.Load() >= a.inj.Count {
		return false
	}
	if a.inj.Count > 0 && a.fired.Add(1) > a.inj.Count {
		return false
	}
	if a.inj.Count == 0 {
		a.fired.Add(1)
	}
	return true
}

// nextRand steps a 64-bit xorshift generator (seeded from
// Injection.Seed) atomically, so concurrent hits draw a deterministic
// sequence given a serial order.
func (a *armed) nextRand() uint64 {
	for {
		old := a.rng.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if a.rng.CompareAndSwap(old, x) {
			return x
		}
	}
}

// Fired returns how many times this site has injected since it was
// last armed.
func (s *Site) Fired() uint64 {
	if a := s.arm.Load(); a != nil {
		return a.fired.Load()
	}
	return 0
}

// shortWriter truncates the first eligible write and returns the
// injected error, mimicking a torn write to disk or a dropped
// connection mid-frame.
type shortWriter struct {
	w    io.Writer
	site *Site
}

func (sw shortWriter) Write(p []byte) (int, error) {
	a := sw.site.arm.Load()
	if a == nil || a.inj.Mode != ModeShortWrite {
		return sw.w.Write(p)
	}
	if !a.fire() {
		return sw.w.Write(p)
	}
	n := len(p) / 2
	if n > 0 {
		if wn, err := sw.w.Write(p[:n]); err != nil {
			return wn, err
		}
	}
	return n, fmt.Errorf("fault: short write at %s: %w", sw.site.name, a.err())
}

// Writer wraps w so that an armed ModeShortWrite plan on this site
// truncates writes. Disarmed (or armed with another mode) the wrapper
// passes writes through unchanged; wrapping itself is cheap enough for
// snapshot/stream encode paths, which allocate buffers anyway.
func (s *Site) Writer(w io.Writer) io.Writer { return shortWriter{w: w, site: s} }

// registry is the process-wide name → site table. Registration happens
// at package init; arming/disarming happens from tests.
var (
	regMu sync.RWMutex
	reg   = map[string]*Site{}
)

// Register declares (or returns the existing) fault point with the
// given name. Call it from package-level var initialisers:
//
//	var scanFault = fault.Register("colexec.scan")
func Register(name string) *Site {
	regMu.Lock()
	defer regMu.Unlock()
	if s, ok := reg[name]; ok {
		return s
	}
	s := &Site{name: name}
	reg[name] = s
	return s
}

// Lookup returns the registered site, or nil.
func Lookup(name string) *Site {
	regMu.RLock()
	defer regMu.RUnlock()
	return reg[name]
}

// Names returns the sorted names of every registered fault point — the
// sweep space for the chaos suite.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(reg))
	for n := range reg {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Arm installs an Injection plan on the named point. It returns an
// error for unknown names so a chaos plan with a typo fails loudly
// instead of sweeping nothing.
func Arm(name string, inj Injection) error {
	s := Lookup(name)
	if s == nil {
		return fmt.Errorf("fault: unknown point %q", name)
	}
	a := &armed{inj: inj}
	seed := inj.Seed
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	a.rng.Store(seed)
	s.arm.Store(a)
	return nil
}

// DisarmAll removes the plans from every registered point. Chaos tests
// defer this so a failed assertion cannot leak an armed fault into the
// rest of the test binary.
func DisarmAll() {
	regMu.RLock()
	defer regMu.RUnlock()
	for _, s := range reg {
		s.arm.Store(nil)
	}
}

// Armed returns the names of currently armed points, sorted.
func Armed() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	var out []string
	for n, s := range reg {
		if s.arm.Load() != nil {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
