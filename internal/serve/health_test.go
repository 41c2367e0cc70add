package serve

import (
	"strings"
	"testing"
	"time"
)

func TestHealthStartsReady(t *testing.T) {
	h := NewHealth()
	if ready, reasons := h.Ready(); !ready || len(reasons) != 0 {
		t.Fatalf("fresh tracker not ready: %v", reasons)
	}
}

func TestHealthDrainingIsOneWay(t *testing.T) {
	h := NewHealth()
	h.SetDraining()
	ready, reasons := h.Ready()
	if ready || len(reasons) != 1 || reasons[0] != "draining" {
		t.Fatalf("Ready() = %v, %v; want not ready with reason draining", ready, reasons)
	}
	// Nothing recovers a draining server.
	h.ReportSuccess("engine")
	if ready, _ := h.Ready(); ready {
		t.Fatal("draining tracker recovered")
	}
}

func TestHealthSourceFailuresDegradeAndRecover(t *testing.T) {
	h := NewHealth()
	for i := 1; i < failureThreshold; i++ {
		h.ReportFailure("engine")
	}
	if ready, _ := h.Ready(); !ready {
		t.Fatal("degraded below the failure threshold")
	}
	h.ReportFailure("engine")
	ready, reasons := h.Ready()
	if ready || len(reasons) != 1 || !strings.Contains(reasons[0], "engine") {
		t.Fatalf("Ready() = %v, %v; want engine degradation", ready, reasons)
	}
	// Failures keep counting while degraded; one success clears all.
	h.ReportFailure("engine")
	h.ReportSuccess("engine")
	if ready, reasons := h.Ready(); !ready || len(reasons) != 0 {
		t.Fatalf("one success did not recover readiness: %v", reasons)
	}
}

func TestHealthSustainedShedDegrades(t *testing.T) {
	now := time.Unix(1000, 0)
	h := NewHealth()
	h.now = func() time.Time { return now }
	// One shed short of the minimum sample size: still ready.
	for i := 1; i < minWindowRequests; i++ {
		h.ObserveAdmission(true)
	}
	if ready, _ := h.Ready(); !ready {
		t.Fatal("degraded below minWindowRequests")
	}
	// The next shed crosses both the sample floor and the rate threshold.
	h.ObserveAdmission(true)
	ready, reasons := h.Ready()
	if ready || len(reasons) != 1 || !strings.Contains(reasons[0], "shedding") {
		t.Fatalf("Ready() = %v, %v; want shed-rate degradation", ready, reasons)
	}
	// Sheds spread over the window count as one burst.
	now = now.Add(shedWindow - time.Second)
	if ready, _ := h.Ready(); ready {
		t.Fatal("the shed burst left the window before it ended")
	}
	// Mixed traffic below the rate threshold is ready again once time
	// moves past the shed burst.
	now = now.Add(2 * time.Second)
	for i := 0; i < 30; i++ {
		h.ObserveAdmission(i%4 == 0) // 25% shed
	}
	if ready, reasons := h.Ready(); !ready {
		t.Fatalf("25%% shed rate read as degraded: %v", reasons)
	}
	// The window slides: old buckets expire without new traffic.
	now = now.Add(shedWindow + time.Second)
	if ready, _ := h.Ready(); !ready {
		t.Fatal("expired window still degraded")
	}
}
