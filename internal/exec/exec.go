// Package exec defines the backend-neutral execution interface of Prism:
// the Project-Join plan language, execution options and statistics, and the
// Executor contract that the discovery, scheduling and filter-validation
// layers program against.
//
// The paper runs Prism "on top of a conventional DBMS"; this package is the
// seam that keeps the pipeline independent of which engine that is. Two
// implementations ship with the repository: the row-at-a-time reference
// engine (package mem, which also owns row storage and preprocessing) and
// the columnar engine every product round runs on (package colexec). An
// executor is handed to the discovery engine as a value; docs/executors.md
// has the recipe for adding one.
package exec

import (
	"errors"
	"fmt"
	"sync"

	"prism/internal/schema"
	"prism/internal/value"
)

// ErrUnknownExecutor is wrapped by New when no factory is registered under
// the requested name.
//
// Deprecated: ROADMAP item 0e deletes it with the registry.
var ErrUnknownExecutor = errors.New("exec: unknown executor")

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
	// reference. The slice is the source's own, built once: callers read
	// it and must not modify it.
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
	// ColumnIndex returns the key dictionary of the given column, which
	// stores it: the source builds every column's once, when it is analysed,
	// and hands the same immutable index to every caller from then on — its
	// data does not change after that.
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
// this for both backends.
type Executor interface {
	Metadata
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

// DefaultName is the registry name of the columnar executor.
//
// Deprecated: ROADMAP item 0e deletes it with the registry; the files under
// benchmark/ still call New(DefaultName, db).
const DefaultName = "columnar"

// Factory builds an executor over a source.
//
// Deprecated: ROADMAP item 0e deletes it with the registry.
type Factory func(src Source) (Executor, error)

var (
	registryMu sync.RWMutex
	registry   = make(map[string]Factory)
)

// Register installs (or replaces) a named executor factory. Only colexec
// registers, under DefaultName.
//
// Deprecated: ROADMAP item 0e deletes it with the registry.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[name] = f
}

// New builds the named executor over src. Product code builds its executor
// by value (colexec.New) and never calls it.
//
// Deprecated: ROADMAP item 0e deletes it with the registry; the files under
// benchmark/ still call it.
func New(name string, src Source) (Executor, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownExecutor, name)
	}
	return f(src)
}
