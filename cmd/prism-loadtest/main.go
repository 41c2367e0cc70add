// Command prism-loadtest drives a Prism server with concurrent discovery
// traffic across admission priority classes and records the serving
// tier's behaviour — per-class p50/p99 latency, throughput, and shed
// rate — over a grid of concurrency levels × priority mixes. The result
// is written as the BENCH_load.json trajectory artefact that
// TestLoadTrajectoryGuard pins and the CI loadtest-smoke leg
// regression-checks.
//
// With no -addr it self-hosts: an in-process server over the bundled
// datasets is booted on a loopback port, so the artefact can be
// regenerated with a plain
//
//	go run ./cmd/prism-loadtest
//
// Point -addr at a running prism-demo to profile a live deployment
// instead. The admission budget flags (-max-concurrent, -max-queue,
// -queue-timeout, -max-per-tenant) shape the self-hosted server; tighten
// them to observe shedding:
//
//	go run ./cmd/prism-loadtest -max-concurrent 1 -max-queue 1 -rounds 40
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"prism"
	"prism/api"
	"prism/client"
	"prism/internal/loadtest"
	"prism/internal/serve"
	"prism/internal/server"
)

func main() {
	addr := flag.String("addr", "", "server to profile (default: self-host an in-process server)")
	db := flag.String("db", "mondial", "database of the probe request")
	rounds := flag.Int("rounds", 60, "rounds per grid cell")
	concurrency := flag.String("concurrency", "4,16", "comma-separated concurrency levels")
	mixNames := flag.String("mixes", "interactive,mixed", "comma-separated mix names (interactive, mixed)")
	out := flag.String("out", "BENCH_load.json", "trajectory output path ('' = don't write)")
	retries := flag.Int("retry", 0, "client retry attempts for shed rounds (0 = measure raw shedding)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-round discovery time limit (self-hosted server)")
	maxConcurrent := flag.Int("max-concurrent", 0, "admission: max concurrent rounds (self-hosted; 0 = default)")
	maxPerTenant := flag.Int("max-per-tenant", 0, "admission: max concurrent rounds per tenant (self-hosted; 0 = default)")
	maxQueue := flag.Int("max-queue", 0, "admission: max queued requests (self-hosted; 0 = default)")
	queueTimeout := flag.Duration("queue-timeout", 0, "admission: max queue wait (self-hosted; 0 = default)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the load run to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the load run to this file (go tool pprof)")
	traceFile := flag.String("trace", "", "after the load run, trace one in-process round of the probe request and write its span tree as NDJSON to this file")
	flag.Parse()

	ctx := context.Background()

	// Profiling hooks: CPU profile over the whole run, heap profile after a
	// final GC so it shows retained memory.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("creating -cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("starting CPU profile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "prism-loadtest: creating -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "prism-loadtest: writing -memprofile:", err)
			}
		}()
	}

	baseURL := *addr
	if baseURL == "" {
		srv, shutdown, err := selfHost(*timeout, serve.Config{
			MaxConcurrent: *maxConcurrent,
			MaxPerTenant:  *maxPerTenant,
			MaxQueue:      *maxQueue,
			QueueTimeout:  *queueTimeout,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer shutdown()
		baseURL = srv
		fmt.Printf("prism-loadtest: self-hosted server on %s\n", baseURL)
	} else if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}

	mixes, err := resolveMixes(*mixNames)
	if err != nil {
		log.Fatal(err)
	}
	levels, err := parseLevels(*concurrency)
	if err != nil {
		log.Fatal(err)
	}

	req := api.DiscoverRequest{
		Database:   *db,
		NumColumns: 3,
		Samples:    [][]string{{"California || Nevada", "Lake Tahoe", ""}},
		Metadata:   []string{"", "", "DataType=='decimal' AND MinValue>='0'"},
	}

	traj := &loadtest.Trajectory{Benchmark: loadtest.BenchmarkName}
	httpc := &http.Client{}
	for _, mix := range mixes {
		for _, c := range levels {
			p, err := loadtest.Run(ctx, loadtest.Config{
				BaseURL:       baseURL,
				Concurrency:   c,
				Rounds:        *rounds,
				Mix:           mix,
				Request:       req,
				RetryAttempts: *retries,
				HTTPClient:    httpc,
			})
			if err != nil {
				log.Fatalf("profile %s/c%d: %v", mix.Name, c, err)
			}
			traj.Profiles = append(traj.Profiles, *p)
			fmt.Printf("%-12s c=%-3d rounds=%-4d completed=%-4d shed=%-4d rps=%8.1f",
				p.Mix, p.Concurrency, p.Rounds, p.Completed, p.Shed, p.ThroughputRPS)
			for _, l := range p.Latency {
				fmt.Printf("  %s p50=%.1fms p99=%.1fms", l.Priority, l.P50Ms, l.P99Ms)
			}
			fmt.Println()
		}
	}

	if stats, err := scrapeStats(ctx, baseURL); err != nil {
		fmt.Fprintf(os.Stderr, "prism-loadtest: stats scrape failed: %v\n", err)
	} else {
		traj.ServerStats = stats
		fmt.Printf("server: admitted=%d shed=%d streamStalls=%d\n",
			stats.Admission.Admitted, stats.Admission.Shed, stats.StreamStalls)
	}

	if *out != "" {
		if err := traj.WriteFile(*out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("prism-loadtest: wrote %s\n", *out)
	}

	// Round traces do not cross the wire, so -trace runs one in-process
	// round of the same probe request and dumps its span tree.
	if *traceFile != "" {
		if err := writeProbeTrace(ctx, req, *traceFile); err != nil {
			fmt.Fprintf(os.Stderr, "prism-loadtest: -trace: %v\n", err)
			return
		}
		fmt.Printf("prism-loadtest: trace written to %s\n", *traceFile)
	}
}

// writeProbeTrace traces one local round of the loadtest probe request
// and writes the span tree as NDJSON.
func writeProbeTrace(ctx context.Context, req api.DiscoverRequest, path string) error {
	eng, err := prism.Open(req.Database)
	if err != nil {
		return err
	}
	spec, err := prism.ParseConstraints(req.NumColumns, req.Samples, req.Metadata)
	if err != nil {
		return err
	}
	report, err := eng.Discover(ctx, spec, prism.Options{Trace: true})
	if err != nil {
		return err
	}
	if report.Trace == nil {
		return fmt.Errorf("the traced round produced no trace")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.Trace.WriteNDJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfHost boots an in-process server over the bundled datasets on a
// loopback port and returns its base URL and shutdown function.
func selfHost(timeout time.Duration, admission serve.Config) (string, func(), error) {
	s := server.New()
	s.TimeLimit = timeout
	s.Admission = admission
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	go func() {
		if err := hs.Serve(l); err != nil && err != http.ErrServerClosed {
			log.Printf("prism-loadtest: self-hosted server: %v", err)
		}
	}()
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
	}
	return "http://" + l.Addr().String(), shutdown, nil
}

func resolveMixes(names string) ([]loadtest.Mix, error) {
	byName := map[string]loadtest.Mix{}
	for _, m := range loadtest.CanonicalMixes() {
		byName[m.Name] = m
	}
	var out []loadtest.Mix
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		m, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown mix %q (have: interactive, mixed)", name)
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no mixes selected")
	}
	return out, nil
}

func parseLevels(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad concurrency level %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no concurrency levels")
	}
	return out, nil
}

// scrapeStats fetches the server's post-run stats snapshot.
func scrapeStats(ctx context.Context, baseURL string) (*api.StatsResponse, error) {
	c, err := client.New(baseURL)
	if err != nil {
		return nil, err
	}
	return c.Stats(ctx)
}
