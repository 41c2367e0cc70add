// Package exec defines the backend-neutral execution interface of Prism:
// the Project-Join plan language, execution options and statistics, and the
// Executor contract that the discovery, scheduling and filter-validation
// layers program against.
//
// The paper runs Prism "on top of a conventional DBMS"; this package is the
// seam that keeps the pipeline independent of which engine that is. Two
// implementations ship with the repository: the row-at-a-time reference
// engine (package mem, which also owns row storage and preprocessing) and a
// columnar engine with prebuilt hash indexes (package colexec). New
// backends register a Factory under a name and become selectable through
// prism.Options.Executor — see docs/executors.md for the recipe.
package exec

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"prism/internal/schema"
	"prism/internal/value"
)

// ErrUnknownExecutor is wrapped by New when no factory is registered under
// the requested name; servers use it to classify the failure for clients.
var ErrUnknownExecutor = errors.New("exec: unknown executor")

// ErrUnknownTable is wrapped by executor implementations when a request
// names a table the source database does not have; servers use it to
// classify the failure for clients.
var ErrUnknownTable = errors.New("exec: unknown table")

// Metadata is the read-only catalog surface shared by every backend: the
// schema plus the per-column statistics and keyword membership collected
// during preprocessing (§2.3). Related-column search and the scheduling
// cost models run entirely against it.
type Metadata interface {
	// Schema returns the source database schema.
	Schema() *schema.Schema
	// NumRows returns the number of rows stored for table, or 0 if unknown.
	NumRows(table string) int
	// Stats returns the preprocessed statistics for a column.
	Stats(ref schema.ColumnRef) (schema.Stats, bool)
	// AllStats returns statistics for every column, sorted by column
	// reference.
	AllStats() []schema.Stats
	// ColumnHasKeyword reports whether some value of the column matches the
	// keyword as Value.MatchesKeyword does, via the column's key dictionary.
	ColumnHasKeyword(ref schema.ColumnRef, keyword string) bool
}

// Source is what an executor implementation is built from: catalog access
// and per-column key dictionaries, which hold every stored value
// (ColumnIndex.Value). *mem.Database satisfies it; a future backend over an
// external DBMS would adapt its catalog alike.
type Source interface {
	Metadata
	// ColumnIndex returns the key dictionary of the given column over the
	// source's current rows. The source builds it once — every column's, the
	// first time any is asked for — and hands the same immutable index to
	// every caller until its data changes.
	ColumnIndex(ref schema.ColumnRef) (*ColumnIndex, error)
}

// Executor evaluates Project-Join plans against one source database. All
// methods must be safe for concurrent use once the executor is built — the
// validation phase probes one executor from many goroutines.
//
// Implementations must agree on semantics: for the same plan and options,
// every executor returns the same result rows in the same order (execution
// statistics may differ, since they count the work the backend actually
// did). The cross-executor equivalence tests in package discovery enforce
// this for each registered backend.
type Executor interface {
	Metadata
	// ExecutorName identifies the backend ("mem", "columnar", ...).
	ExecutorName() string
	// ExecuteWith runs the plan under the given options.
	ExecuteWith(p Plan, opts ExecOptions) (*Result, error)
	// Exists reports whether the plan produces at least one tuple
	// satisfying the options' predicates, terminating as early as possible.
	// It returns the execution stats as the validation cost. The default
	// backend is required to stop at the first accepted tuple without
	// building the join: its IntermediateRows then counts only the partial
	// tuples formed on the way there, and MaxIntermediate can only abort a
	// probe that has not found its tuple yet. The reference engine computes
	// the whole join and reads one row of it — same verdict, its own cost.
	Exists(p Plan, opts ExecOptions) (bool, ExecStats, error)
	// ExistsBatch is SequentialExistsBatch over the backend.
	//
	// Deprecated: ROADMAP item 0 removes it together with
	// timedExecutor.ExistsBatch.
	ExistsBatch(p Plan, sets []PredicateSet, opts ExecOptions) ([]Verdict, ExecStats, error)
	// SampleRows returns up to limit rows of the named table in storage
	// order (limit <= 0 means all rows); the demo surfaces use it for
	// dataset previews.
	SampleRows(table string, limit int) ([]value.Tuple, error)
}

// DefaultName is the executor used when none is selected explicitly. The
// columnar engine is the default; the row-at-a-time mem engine remains the
// reference implementation that tests cross-check against.
const DefaultName = "columnar"

// Factory builds an executor over a source. Factories should do all
// one-time work (column stores, hash indexes) up front so the executor is
// read-only and concurrency-safe afterwards.
type Factory func(src Source) (Executor, error)

var (
	registryMu sync.RWMutex
	registry   = make(map[string]Factory)
)

// Register installs (or replaces) a named executor factory. Backends call
// it from an init function; selecting a backend by name then only requires
// importing its package for side effects.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[normalize(name)] = f
}

// CanonicalName reduces an executor name to its registry key (lower-case,
// whitespace stripped; the empty name maps to DefaultName). Callers that
// cache executors by name should key on it so every spelling of one
// backend shares an instance.
func CanonicalName(name string) string {
	key := normalize(name)
	if key == "" {
		key = DefaultName
	}
	return key
}

// New builds the named executor over src. The empty name selects
// DefaultName.
func New(name string, src Source) (Executor, error) {
	key := CanonicalName(name)
	registryMu.RLock()
	f, ok := registry[key]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q (registered: %v)", ErrUnknownExecutor, name, Names())
	}
	return f(src)
}

// Names lists the registered executor names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func normalize(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == ' ' || c == '\t' {
			continue
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		out = append(out, c)
	}
	return string(out)
}
