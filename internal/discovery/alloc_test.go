package discovery

import (
	"context"
	"runtime"
	"testing"
)

// TestRoundAllocatedBytes bounds the bytes one warm walkthrough round
// allocates (runtime.MemStats.TotalAlloc across the round). A round
// validates one filter at a time, so the figure does not depend on the host,
// and the core count moves it by under 0.7 %: 642 016 to 646 048 B under
// GOMAXPROCS 1, 2 and 8 (the race detector adds up to 5 %). The ceiling is
// the highest reading plus 10 %. It guards the allocation work on
// a round: lower it when a change takes bytes out, never raise it to make
// room.
func TestRoundAllocatedBytes(t *testing.T) {
	const ceiling = 710_653 // bytes
	e := NewEngine(smallMondial(t))
	spec := paperSpec(t)
	ctx := context.Background()
	// The first round builds what the engine keeps across rounds.
	if _, err := e.Discover(ctx, spec, Options{}); err != nil {
		t.Fatal(err)
	}
	// The least of three rounds: whatever else the process allocates while
	// a round runs can only add to a reading.
	least := uint64(1<<63 - 1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := e.Discover(ctx, spec, Options{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a warm walkthrough round allocates %d B (GOMAXPROCS %d)", least, runtime.GOMAXPROCS(0))
	if least > ceiling {
		t.Errorf("a warm walkthrough round allocates %d B, ceiling %d", least, ceiling)
	}
}
