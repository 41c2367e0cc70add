package prism

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"prism/api"
	"prism/internal/sentinel"
)

// Sentinel errors of the serving surface. They are shared with the wire
// layer: the canonical definitions live in prism/api (and internal/sentinel),
// the server maps them to structured JSON error codes, and the client maps
// the codes back — so errors.Is against these names works identically for
// in-process and remote callers.
var (
	// ErrUnknownDatabase is wrapped by Registry.Get when no engine is
	// registered under the requested name.
	ErrUnknownDatabase = api.ErrUnknownDatabase
	// ErrUnknownTable is wrapped by SampleRows and plan execution when a
	// table name does not exist in the source schema.
	ErrUnknownTable = sentinel.ErrUnknownTable
	// ErrUnknownSession is returned by the client when a refinement-session
	// id is unknown or expired on the server.
	ErrUnknownSession = api.ErrUnknownSession
	// ErrInvalidRequest is returned by the client when the server rejected
	// a request that parsed but failed validation (e.g. a non-positive
	// sample limit).
	ErrInvalidRequest = api.ErrInvalidRequest
	// ErrOverloaded is returned by the client when the server shed the
	// request under load (HTTP 429); back off — honouring the Retry-After
	// hint, which client.WithRetry automates — and try again.
	ErrOverloaded = api.ErrOverloaded
	// ErrDraining is returned by the client when the server is shutting
	// down and no longer admits new rounds (HTTP 503).
	ErrDraining = api.ErrDraining
	// ErrInternal reports a bug caught inside prism — typically a
	// recovered panic in a round or a validation worker — that aborted
	// the round carrying it. The process, worker pool, and other rounds
	// stay healthy. Remote callers see HTTP 500 with code "internal".
	ErrInternal = api.ErrInternal
)

// normalizeName canonicalises a registry / Open database name.
func normalizeName(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// registryEntry is one named engine slot; the engine is built at most once,
// on first use, with concurrent callers waiting for the single build.
type registryEntry struct {
	once sync.Once
	open func() (*Engine, error)
	eng  *Engine
	err  error
}

// Registry is a concurrency-safe catalog of named engines for serving
// workloads: many goroutines can Get the same engine and run discovery
// rounds over it concurrently (engines are read-only after preprocessing).
// Engines are built lazily on first Get — registering is free, so a server
// can start instantly — and each engine is built exactly once even under
// concurrent first access.
//
// NewRegistry pre-registers the bundled synthetic data sets (DatasetNames)
// at their default sizes; Register* calls add to or override them.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*registryEntry
}

// NewRegistry creates a registry with the bundled data sets pre-registered
// for lazy construction.
func NewRegistry() *Registry {
	r := &Registry{entries: make(map[string]*registryEntry)}
	for _, name := range DatasetNames() {
		r.RegisterOpener(name, func() (*Engine, error) { return Open(name) })
	}
	return r
}

// RegisterOpener installs (or replaces) a named engine built by open on
// first use.
func (r *Registry) RegisterOpener(name string, open func() (*Engine, error)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[normalizeName(name)] = &registryEntry{open: open}
}

// Register installs (or replaces) an already-built engine under the name.
func (r *Registry) Register(name string, eng *Engine) {
	r.RegisterOpener(name, func() (*Engine, error) { return eng, nil })
}

// RegisterDatabase installs (or replaces) a custom database under the
// name; preprocessing (key dictionaries, statistics, Bayesian models) runs
// lazily on first Get.
func (r *Registry) RegisterDatabase(name string, db *Database) {
	r.RegisterOpener(name, func() (*Engine, error) { return NewEngine(db), nil })
}

// RegisterFile installs (or replaces) a file-backed dataset under the
// name: a directory of CSV files, a single .csv file, a SQLite database
// file, or an engine snapshot (the format is sniffed; see Open's "file:"
// scheme). Ingestion and preprocessing run lazily on first Get, so a
// server can register many files and pay only for those actually
// queried. Registration is deliberately explicit — the registry never
// resolves "file:" names on its own, so a serving tier exposes exactly
// the paths its operator registered and a client-supplied database name
// can never reach the filesystem.
func (r *Registry) RegisterFile(name, path string, options ...OpenOption) {
	r.RegisterOpener(name, func() (*Engine, error) { return Open("file:"+path, options...) })
}

// Get returns the named engine, building it on first use. Concurrent Gets
// of the same name share one build; a failed build is cached and returned
// to every caller (re-register to retry).
func (r *Registry) Get(name string) (*Engine, error) {
	key := normalizeName(name)
	r.mu.Lock()
	e, ok := r.entries[key]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w %q (registered: %s)",
			ErrUnknownDatabase, name, strings.Join(r.Names(), ", "))
	}
	e.once.Do(func() { e.eng, e.err = e.open() })
	return e.eng, e.err
}

// Names lists the registered database names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
