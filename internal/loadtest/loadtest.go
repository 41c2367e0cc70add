// Package loadtest drives a Prism server with concurrent discovery
// traffic mixed across admission priority classes and measures the
// serving tier's behaviour under load: per-class latency quantiles,
// throughput, and the shed rate of the admission controller. It is the
// engine of cmd/prism-loadtest, which records the BENCH_load.json
// trajectory artefact the CI loadtest-smoke leg regression-checks.
package loadtest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prism"
	"prism/api"
	"prism/client"
)

// Mix is a weighted blend of admission priority classes. Rounds are
// assigned to classes by a deterministic proportional interleave of the
// weights, so two runs of the same profile issue the same request
// sequence.
type Mix struct {
	Name string `json:"name"`
	// Weights maps priority class names (api.Priority*) to their share of
	// the traffic.
	Weights map[string]int `json:"weights"`
}

// schedule expands the weights into the deterministic per-round class
// sequence: at each step the class with the largest remaining
// weight-per-emission claims the slot, which interleaves classes
// proportionally instead of clustering them.
func (m Mix) schedule() []string {
	classes := make([]string, 0, len(m.Weights))
	total := 0
	for cls, w := range m.Weights {
		if w > 0 {
			classes = append(classes, cls)
			total += w
		}
	}
	sort.Strings(classes)
	out := make([]string, 0, total)
	emitted := make(map[string]int, len(classes))
	for len(out) < total {
		best, bestScore := "", -1.0
		for _, cls := range classes {
			score := float64(m.Weights[cls]) / float64(emitted[cls]+1)
			if score > bestScore {
				best, bestScore = cls, score
			}
		}
		out = append(out, best)
		emitted[best]++
	}
	return out
}

// CanonicalMixes returns the two standard priority blends of the
// BENCH_load.json grid: "interactive" (an interactive-heavy 80/20 blend
// against background batch traffic) and "mixed" (an even split of normal
// and batch rounds).
func CanonicalMixes() []Mix {
	return []Mix{
		{Name: "interactive", Weights: map[string]int{api.PriorityInteractive: 4, api.PriorityBatch: 1}},
		{Name: "mixed", Weights: map[string]int{api.PriorityNormal: 1, api.PriorityBatch: 1}},
	}
}

// Config drives one load profile.
type Config struct {
	// BaseURL is the server root (scheme + host), as for client.New.
	BaseURL string
	// Concurrency is the number of in-flight requests the driver keeps.
	Concurrency int
	// Rounds is the total number of discovery requests to issue.
	Rounds int
	// Mix blends the rounds across priority classes.
	Mix Mix
	// Request is the discovery round every worker issues (same request
	// each time: the artefact measures the serving tier, not the engine).
	Request api.DiscoverRequest
	// Tenants are cycled round-robin across rounds (default: just
	// api.DefaultTenant).
	Tenants []string
	// RetryAttempts > 1 enables client.WithRetry with RetryBackoff; the
	// default (0) measures raw shedding instead of retrying through it.
	RetryAttempts int
	RetryBackoff  time.Duration
	// HTTPClient is shared by every worker when set (connection reuse
	// across the profile).
	HTTPClient *http.Client
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	if c.Rounds <= 0 {
		c.Rounds = 10 * c.Concurrency
	}
	if len(c.Mix.Weights) == 0 {
		c.Mix = CanonicalMixes()[0]
	}
	if len(c.Tenants) == 0 {
		c.Tenants = []string{api.DefaultTenant}
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	return c
}

// ClassLatency is the measured latency of one priority class within a
// profile (successful rounds only; quantiles are exact nearest-rank over
// all samples).
type ClassLatency struct {
	Priority string  `json:"priority"`
	Count    int     `json:"count"`
	P50Ms    float64 `json:"p50Ms"`
	P99Ms    float64 `json:"p99Ms"`
}

// Profile is the result of one load profile: a (concurrency, mix) cell
// of the BENCH_load.json grid.
type Profile struct {
	Mix         string `json:"mix"`
	Concurrency int    `json:"concurrency"`
	Rounds      int    `json:"rounds"`
	// Completed + Shed + Failed == Rounds. Shed counts requests the
	// server rejected with 429 (after the client's retry budget, if any);
	// Failed is everything else that errored.
	Completed int   `json:"completed"`
	Shed      int   `json:"shed"`
	Failed    int   `json:"failed"`
	ElapsedMs int64 `json:"elapsedMs"`
	// ThroughputRPS is completed rounds per second of wall clock.
	ThroughputRPS float64 `json:"throughputRps"`
	// ShedRate is Shed / Rounds.
	ShedRate float64        `json:"shedRate"`
	Latency  []ClassLatency `json:"latency"`
}

// Run executes one load profile against the server at cfg.BaseURL and
// returns its measurements. Cancelling ctx stops issuing new rounds;
// rounds already in flight finish (or fail) and are counted.
func Run(ctx context.Context, cfg Config) (*Profile, error) {
	cfg = cfg.withDefaults()
	schedule := cfg.Mix.schedule()
	if len(schedule) == 0 {
		return nil, fmt.Errorf("loadtest: mix %q has no positive weights", cfg.Mix.Name)
	}

	// One client per (class, tenant) pair: headers are client-level state.
	type clientKey struct{ pri, tenant string }
	clients := make(map[clientKey]*client.Client)
	for _, pri := range schedule {
		for _, tenant := range cfg.Tenants {
			k := clientKey{pri, tenant}
			if _, ok := clients[k]; ok {
				continue
			}
			opts := []client.Option{
				client.WithHTTPClient(cfg.HTTPClient),
				client.WithTenant(tenant),
				client.WithPriority(pri),
			}
			if cfg.RetryAttempts > 1 {
				opts = append(opts, client.WithRetry(cfg.RetryAttempts, cfg.RetryBackoff))
			}
			c, err := client.New(cfg.BaseURL, opts...)
			if err != nil {
				return nil, err
			}
			clients[k] = c
		}
	}

	var (
		next      atomic.Int64
		mu        sync.Mutex
		latencies = make(map[string][]float64)
		completed int
		shed      int
		failed    int
		wg        sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.Rounds || ctx.Err() != nil {
					return
				}
				pri := schedule[i%len(schedule)]
				tenant := cfg.Tenants[i%len(cfg.Tenants)]
				c := clients[clientKey{pri, tenant}]
				roundStart := time.Now()
				_, err := c.Discover(ctx, cfg.Request)
				elapsed := time.Since(roundStart)
				mu.Lock()
				switch {
				case err == nil:
					completed++
					latencies[pri] = append(latencies[pri], float64(elapsed.Microseconds())/1000)
				case errors.Is(err, prism.ErrOverloaded):
					shed++
				default:
					failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	p := &Profile{
		Mix:         cfg.Mix.Name,
		Concurrency: cfg.Concurrency,
		Rounds:      cfg.Rounds,
		Completed:   completed,
		Shed:        shed,
		Failed:      failed,
		ElapsedMs:   elapsed.Milliseconds(),
		ShedRate:    float64(shed) / float64(cfg.Rounds),
	}
	if secs := elapsed.Seconds(); secs > 0 {
		p.ThroughputRPS = float64(completed) / secs
	}
	classes := make([]string, 0, len(latencies))
	for cls := range latencies {
		classes = append(classes, cls)
	}
	sort.Strings(classes)
	for _, cls := range classes {
		samples := latencies[cls]
		sort.Float64s(samples)
		p.Latency = append(p.Latency, ClassLatency{
			Priority: cls,
			Count:    len(samples),
			P50Ms:    quantile(samples, 0.50),
			P99Ms:    quantile(samples, 0.99),
		})
	}
	return p, nil
}

// quantile is the exact nearest-rank quantile (ceil convention, matching
// the server's histograms) of a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(float64(len(sorted))*q)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
