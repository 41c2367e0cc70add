package fault

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

// Disarmed sites return nil and inject nothing.
func TestDisarmedHitIsNil(t *testing.T) {
	s := Register("test.disarmed")
	for i := 0; i < 100; i++ {
		if err := s.Hit(); err != nil {
			t.Fatalf("disarmed Hit returned %v", err)
		}
	}
}

// A disarmed hit must not allocate: fault points sit on paths guarded
// by 0 allocs/op benchmarks.
func TestDisarmedHitZeroAllocs(t *testing.T) {
	s := Register("test.zeroalloc")
	allocs := testing.AllocsPerRun(1000, func() {
		if err := s.Hit(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("disarmed Hit allocates %v per op, want 0", allocs)
	}
}

// ModeError fires the configured error, default ErrInjected.
func TestArmError(t *testing.T) {
	s := Register("test.error")
	defer DisarmAll()
	if err := Arm(s.Name(), Injection{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Hit(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Hit = %v, want ErrInjected", err)
	}
	custom := errors.New("boom")
	if err := Arm(s.Name(), Injection{Err: custom}); err != nil {
		t.Fatal(err)
	}
	if err := s.Hit(); !errors.Is(err, custom) {
		t.Fatalf("Hit = %v, want custom error", err)
	}
	DisarmAll()
	if err := s.Hit(); err != nil {
		t.Fatalf("Hit after DisarmAll = %v, want nil", err)
	}
}

// Skip suppresses the first hits, Count caps the firings.
func TestSkipAndCount(t *testing.T) {
	s := Register("test.skipcount")
	defer DisarmAll()
	if err := Arm(s.Name(), Injection{Skip: 2, Count: 3}); err != nil {
		t.Fatal(err)
	}
	var fired int
	for i := 0; i < 10; i++ {
		if s.Hit() != nil {
			fired++
			if i < 2 {
				t.Fatalf("hit %d fired inside Skip window", i)
			}
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d times, want 3 (Count)", fired)
	}
	if f := s.Fired(); f != 3 {
		t.Fatalf("Fired() = %d, want 3", f)
	}
}

// Prob with a fixed Seed yields the same firing pattern on every run.
func TestProbDeterministic(t *testing.T) {
	s := Register("test.prob")
	defer DisarmAll()
	pattern := func() string {
		if err := Arm(s.Name(), Injection{Prob: 0.5, Seed: 42}); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for i := 0; i < 64; i++ {
			if s.Hit() != nil {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		return b.String()
	}
	p1, p2 := pattern(), pattern()
	if p1 != p2 {
		t.Fatalf("same seed, different patterns:\n%s\n%s", p1, p2)
	}
	if !strings.Contains(p1, "1") || !strings.Contains(p1, "0") {
		t.Fatalf("Prob=0.5 pattern degenerate: %s", p1)
	}
}

// ModePanic panics with a value naming the site.
func TestPanicMode(t *testing.T) {
	s := Register("test.panic")
	defer DisarmAll()
	if err := Arm(s.Name(), Injection{Mode: ModePanic}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("armed ModePanic did not panic")
		}
		if !strings.Contains(r.(string), "test.panic") {
			t.Fatalf("panic value %q does not name the site", r)
		}
	}()
	_ = s.Hit()
}

// ModeDelay sleeps for the configured duration.
func TestDelayMode(t *testing.T) {
	s := Register("test.delay")
	defer DisarmAll()
	if err := Arm(s.Name(), Injection{Mode: ModeDelay, Delay: 30 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := s.Hit(); err != nil {
		t.Fatalf("ModeDelay Hit = %v, want nil", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("ModeDelay returned after %v, want >= ~30ms", d)
	}
}

// Writer truncates one write under ModeShortWrite and passes through
// otherwise.
func TestShortWrite(t *testing.T) {
	s := Register("test.shortwrite")
	defer DisarmAll()
	var buf bytes.Buffer
	w := s.Writer(&buf)
	if n, err := w.Write([]byte("hello")); err != nil || n != 5 {
		t.Fatalf("disarmed write = (%d, %v)", n, err)
	}
	if err := Arm(s.Name(), Injection{Mode: ModeShortWrite, Count: 1}); err != nil {
		t.Fatal(err)
	}
	n, err := w.Write([]byte("world!"))
	if err == nil {
		t.Fatal("armed short write returned nil error")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("short write error %v does not wrap ErrInjected", err)
	}
	if n >= 6 {
		t.Fatalf("short write wrote %d of 6 bytes", n)
	}
	// Budget exhausted: next write passes through.
	if n, err := w.Write([]byte("again")); err != nil || n != 5 {
		t.Fatalf("post-budget write = (%d, %v)", n, err)
	}
	// Hit is a no-op under ModeShortWrite.
	if err := s.Hit(); err != nil {
		t.Fatalf("Hit under ModeShortWrite = %v, want nil", err)
	}
}

// Arm rejects unknown names and invents no site for them.
func TestUnknownNames(t *testing.T) {
	if err := Arm("no.such.point", Injection{}); err == nil {
		t.Fatal("Arm of unknown point succeeded")
	}
	if Lookup("no.such.point") != nil {
		t.Fatal("Lookup invented a site")
	}
}

// Names is sorted and contains registered points; Armed tracks state;
// DisarmAll clears everything.
func TestRegistryEnumeration(t *testing.T) {
	a := Register("test.reg.a")
	b := Register("test.reg.b")
	if Register("test.reg.a") != a {
		t.Fatal("re-Register returned a different site")
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
	if err := Arm(a.Name(), Injection{}); err != nil {
		t.Fatal(err)
	}
	if err := Arm(b.Name(), Injection{}); err != nil {
		t.Fatal(err)
	}
	armed := Armed()
	found := 0
	for _, n := range armed {
		if n == a.Name() || n == b.Name() {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("Armed() = %v, missing test points", armed)
	}
	DisarmAll()
	if got := Armed(); len(got) != 0 {
		t.Fatalf("Armed() after DisarmAll = %v", got)
	}
}

// Concurrent hits on an armed point race-cleanly and honor Count.
func TestConcurrentHits(t *testing.T) {
	s := Register("test.concurrent")
	defer DisarmAll()
	if err := Arm(s.Name(), Injection{Count: 100}); err != nil {
		t.Fatal(err)
	}
	done := make(chan int)
	for g := 0; g < 8; g++ {
		go func() {
			n := 0
			for i := 0; i < 1000; i++ {
				if s.Hit() != nil {
					n++
				}
			}
			done <- n
		}()
	}
	total := 0
	for g := 0; g < 8; g++ {
		total += <-done
	}
	if total != 100 {
		t.Fatalf("fired %d times under concurrency, want exactly 100", total)
	}
}
