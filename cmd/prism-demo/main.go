// Command prism-demo serves the interactive web demonstration described in
// the paper's §3: a Configuration section to pick the source database and
// target-schema size, a Description section with the sample and metadata
// constraint grids, and a Result section listing every discovered schema
// mapping query with its SQL, result preview and query-graph explanation.
//
// Alongside the HTML demo it serves the versioned JSON API (/api/v1/*,
// see docs/api.md) that the prism/client SDK and prism-cli -remote drive.
//
//	prism-demo -addr :8080
//
// SIGINT/SIGTERM shut the server down gracefully: the listener closes
// immediately and in-flight discovery rounds drain before the process
// exits (a second signal kills it the hard way).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -debug-addr listener
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"prism"
	"prism/internal/dataset"
	"prism/internal/obs"
	"prism/internal/serve"
	"prism/internal/server"
)

// metricSnapshotRebuilds counts corrupt or unreadable engine snapshots
// that were discarded and rebuilt from the generator (the default
// degradation; -strict-snapshot turns them back into startup failures).
var metricSnapshotRebuilds = obs.Default.Counter("prism_snapshot_rebuilds_total",
	"Corrupt engine snapshots discarded and rebuilt from the dataset generator.")

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	timeout := flag.Duration("timeout", 60*time.Second, "per-round discovery time limit")
	grace := flag.Duration("shutdown-grace", 0, "drain budget for in-flight rounds on shutdown (0 = timeout plus slack)")
	maxConcurrent := flag.Int("max-concurrent", 0, "admission: max concurrent rounds across tenants (0 = 2×GOMAXPROCS)")
	maxPerTenant := flag.Int("max-per-tenant", 0, "admission: max concurrent rounds per tenant (0 = max-concurrent)")
	maxQueue := flag.Int("max-queue", 0, "admission: max requests queued for admission (0 = 8×max-concurrent)")
	queueTimeout := flag.Duration("queue-timeout", 0, "admission: max wait in the queue before shedding (0 = 5s)")
	snapshotDir := flag.String("snapshot", "", "engine snapshot directory: <dir>/<db>.snap is loaded instead of regenerating; snapshots missing there are written after the first build (delete stale files when changing -big)")
	strictSnapshot := flag.Bool("strict-snapshot", false, "treat a corrupt snapshot as a fatal startup error instead of rebuilding from the generator and rewriting it")
	big := flag.Bool("big", false, "serve the million-row scaled variants of the bundled datasets")
	debugAddr := flag.String("debug-addr", "", "listen address for the net/http/pprof debug endpoints (disabled when empty; keep it private — bind to localhost)")
	flag.Parse()

	// The first SIGINT/SIGTERM starts the graceful drain; signal.NotifyContext
	// then unregisters, so a second signal terminates the process immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	s := server.New()
	s.TimeLimit = *timeout
	s.ShutdownGrace = *grace
	s.Admission = serve.Config{
		MaxConcurrent: *maxConcurrent,
		MaxPerTenant:  *maxPerTenant,
		MaxQueue:      *maxQueue,
		QueueTimeout:  *queueTimeout,
	}
	if *big || *snapshotDir != "" {
		for _, name := range prism.DatasetNames() {
			s.Registry.RegisterOpener(name, func() (*prism.Engine, error) {
				return openDataset(name, *big, *snapshotDir, *strictSnapshot)
			})
		}
	}
	// The pprof surface lives on its own listener so profiling a production
	// deployment never exposes /debug/pprof on the public address.
	if *debugAddr != "" {
		go func() {
			// net/http/pprof registers on http.DefaultServeMux; serving nil
			// here exposes exactly those routes and nothing of the demo.
			log.Printf("prism-demo: pprof debug server on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("prism-demo: debug server: %v", err)
			}
		}()
	}
	fmt.Printf("prism-demo: listening on %s (databases: mondial, imdb, nba)\n", *addr)
	if err := s.ListenAndServe(ctx, *addr); err != nil {
		log.Fatal(err)
	}
	fmt.Println("prism-demo: drained in-flight rounds, bye")
}

// openDataset builds one bundled dataset's engine, preferring a snapshot
// from the -snapshot directory when one is there and writing one back
// (best effort) after building from scratch. Engines are built lazily by
// the registry, so a server with warm snapshots starts serving a dataset
// after one file read instead of a full generate-and-analyze.
//
// A snapshot that exists but fails to load (torn write, version drift,
// corruption) degrades gracefully by default: warn, count the rebuild in
// obs, regenerate from the generator and rewrite the snapshot. With
// strict set (-strict-snapshot) the error stands — surfacing on the
// dataset's first open, since engines build lazily — for operators who
// would rather investigate than serve regenerated data silently.
func openDataset(name string, big bool, dir string, strict bool) (*prism.Engine, error) {
	var path string
	if dir != "" {
		path = filepath.Join(dir, name+".snap")
		start := time.Now()
		eng, err := prism.OpenSnapshot(path)
		switch {
		case err == nil:
			log.Printf("prism-demo: %s: loaded snapshot %s in %v", name, path, time.Since(start).Round(time.Millisecond))
			return eng, nil
		case !errors.Is(err, fs.ErrNotExist):
			if strict {
				return nil, err
			}
			metricSnapshotRebuilds.Inc()
			log.Printf("prism-demo: %s: snapshot %s unusable (%v); rebuilding from generator", name, path, err)
		}
	}
	eng, err := buildDataset(name, big)
	if err != nil {
		return nil, err
	}
	if path != "" {
		if err := eng.SnapshotFile(path); err != nil {
			log.Printf("prism-demo: %s: writing snapshot: %v", name, err)
		} else {
			log.Printf("prism-demo: %s: wrote snapshot %s", name, path)
		}
	}
	return eng, nil
}

func buildDataset(name string, big bool) (*prism.Engine, error) {
	if !big {
		return prism.Open(name)
	}
	switch name {
	case "mondial":
		return prism.Open(name, prism.WithMondialConfig(dataset.BigMondialConfig()))
	case "imdb":
		return prism.Open(name, prism.WithIMDBConfig(dataset.BigIMDBConfig()))
	case "nba":
		return prism.Open(name, prism.WithNBAConfig(dataset.BigNBAConfig()))
	default:
		return prism.Open(name)
	}
}
