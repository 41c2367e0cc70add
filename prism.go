// Package prism is a multiresolution schema mapping system: it synthesizes
// Project-Join SQL queries that map a relational source database to a
// target schema the user describes with constraints of varying resolution —
// exact sample values, disjunctions of possible values, value ranges, and
// column-level metadata such as data types and value bounds.
//
// It reproduces the system of "Demonstration of a Multiresolution Schema
// Mapping System" (Jin, Baik, Cafarella, Jagadish, Lou — CIDR 2019): the
// constraint language of Figure 1, the discovery pipeline of Figure 2
// (related-column search, candidate generation over the schema graph,
// filter-based validation with Bayesian-model-driven scheduling), and the
// query-graph explanations of Figure 4.
//
// # Quick start
//
//	eng, err := prism.Open("mondial")
//	if err != nil { ... }
//	spec, err := prism.ParseConstraints(3,
//		[][]string{{"California || Nevada", "Lake Tahoe", ""}},
//		[]string{"", "", "DataType=='decimal' AND MinValue>='0'"})
//	if err != nil { ... }
//	report, err := eng.Discover(ctx, spec, prism.Options{IncludeResults: true})
//	for _, m := range report.Mappings {
//		fmt.Println(m.SQL)
//	}
//
// Discovery is context-first: every round takes a context.Context whose
// cancellation aborts the round mid-validation, and DiscoverStream yields
// mappings and progress incrementally while the round runs. A Registry
// serves shared engines to concurrent rounds.
//
// The subpackages under internal/ implement the substrate (in-memory
// relational engine, constraint language, schema-graph search, Bayesian
// selectivity models, filter scheduling, synthetic data sets); this package
// is the supported public surface.
package prism

import (
	"context"
	"fmt"
	"strings"

	"prism/api"
	"prism/internal/bayes"
	"prism/internal/constraint"
	"prism/internal/dataset"
	"prism/internal/discovery"
	"prism/internal/exec"
	"prism/internal/explain"
	"prism/internal/graphx"
	"prism/internal/lang"
	"prism/internal/mem"
	"prism/internal/obs"
	"prism/internal/schema"
	"prism/internal/sqlgen"
	"prism/internal/value"
)

// Re-exported core types. The aliases give external users stable names for
// the values returned by this package without importing internal packages.
type (
	// Database is an in-memory relational source database.
	Database = mem.Database
	// Plan is an executable, backend-neutral Project-Join query plan.
	Plan = exec.Plan
	// Result is the result of executing a plan.
	Result = exec.Result
	// ExecStats reports the work one plan execution (or a whole validation
	// phase) performed; counters are specific to the executor that ran.
	ExecStats = exec.ExecStats
	// Schema describes tables, columns and foreign keys.
	Schema = schema.Schema
	// ColumnRef names a column as Table.Column.
	ColumnRef = schema.ColumnRef
	// Spec is a multiresolution constraint specification.
	Spec = constraint.Spec
	// SampleConstraint is one row of the sample-constraint grid.
	SampleConstraint = constraint.SampleConstraint
	// Options tunes a discovery round.
	Options = discovery.Options
	// Report is the outcome of a discovery round.
	Report = discovery.Report
	// Span is one node of a round trace (Report.Trace, populated when
	// Options.Trace is set): a named phase with duration, attributes and
	// child spans. WriteNDJSON dumps the tree one span per line.
	Span = obs.Span
	// Mapping is one discovered schema mapping query.
	Mapping = discovery.Mapping
	// StreamEvent is one element of a DiscoverStream: a phase marker, a
	// progress update, an incrementally delivered mapping, or the final
	// report.
	StreamEvent = discovery.Event
	// EventKind names the kind of a StreamEvent.
	EventKind = api.EventKind
	// Progress describes how far a discovery round has advanced.
	Progress = api.Progress
	// ExplainGraph is the query-graph explanation of a mapping.
	ExplainGraph = explain.Graph
	// ConstraintSelection selects which constraints to overlay on an
	// explanation graph.
	ConstraintSelection = explain.ConstraintSelection
	// Value is a typed scalar cell value.
	Value = value.Value
	// Tuple is a row of values.
	Tuple = value.Tuple
	// MondialConfig sizes the synthetic Mondial data set.
	MondialConfig = dataset.MondialConfig
	// IMDBConfig sizes the synthetic IMDB data set.
	IMDBConfig = dataset.IMDBConfig
	// NBAConfig sizes the synthetic NBA data set.
	NBAConfig = dataset.NBAConfig
)

// Streaming event kinds (see DiscoverStream).
const (
	// EventRelated reports the related-column search result.
	EventRelated = api.EventRelated
	// EventCandidates reports that candidate enumeration finished.
	EventCandidates = api.EventCandidates
	// EventFilters reports that the validation phase is about to start.
	EventFilters = api.EventFilters
	// EventProgress reports validation-phase progress.
	EventProgress = api.EventProgress
	// EventMapping delivers one confirmed mapping as soon as it resolves.
	EventMapping = api.EventMapping
	// EventDone is the final event, carrying the Report and round error.
	EventDone = api.EventDone
)

// Engine preprocesses one source database (per-column key dictionaries,
// column statistics, Bayesian models) and answers discovery requests over
// it.
type Engine struct {
	inner *discovery.Engine
}

// NewEngine preprocesses db and returns an engine bound to it.
func NewEngine(db *Database) *Engine {
	return &Engine{inner: discovery.NewEngine(db)}
}

// openConfig collects the effect of OpenOptions.
type openConfig struct {
	mondial *MondialConfig
	imdb    *IMDBConfig
	nba     *NBAConfig
	db      *Database
}

// OpenOption customises Open.
type OpenOption func(*openConfig)

// WithMondialConfig sizes the synthetic Mondial data set built by
// Open("mondial").
func WithMondialConfig(cfg MondialConfig) OpenOption {
	return func(c *openConfig) { c.mondial = &cfg }
}

// WithIMDBConfig sizes the synthetic IMDB data set built by Open("imdb").
func WithIMDBConfig(cfg IMDBConfig) OpenOption {
	return func(c *openConfig) { c.imdb = &cfg }
}

// WithNBAConfig sizes the synthetic NBA data set built by Open("nba").
func WithNBAConfig(cfg NBAConfig) OpenOption {
	return func(c *openConfig) { c.nba = &cfg }
}

// WithDatabase opens an engine over a caller-provided database instead of a
// bundled data set; the name is then only a label.
func WithDatabase(db *Database) OpenOption {
	return func(c *openConfig) { c.db = db }
}

// Open builds the named source database and returns an engine over it. The
// bundled synthetic data sets are "mondial", "imdb" and "nba" (see
// DatasetNames); their scale is tunable with WithMondialConfig /
// WithIMDBConfig / WithNBAConfig, and WithDatabase substitutes a custom
// database entirely. Open replaced the pre-registry OpenDataset /
// OpenMondial / OpenIMDB / OpenNBA constructors, which have been removed
// (migration was mechanical: Open(name) / Open(name, With*Config(cfg))).
//
// A name of the form "file:PATH" ingests a dataset from disk instead:
// PATH may be a directory of CSV files (one table each), a single .csv
// file, a SQLite 3 database file, or an engine snapshot written by
// Engine.Snapshot / SnapshotFile. The format is sniffed from the file
// itself; the path keeps its case (only the scheme prefix is fixed).
func Open(name string, options ...OpenOption) (*Engine, error) {
	var cfg openConfig
	for _, o := range options {
		o(&cfg)
	}
	if cfg.db != nil {
		return NewEngine(cfg.db), nil
	}
	// A sizing option for a data set other than the one being opened is a
	// caller bug; report it instead of silently building the default size.
	key := normalizeName(name)
	for _, mismatch := range []struct {
		set    bool
		option string
		wants  string
	}{
		{cfg.mondial != nil, "WithMondialConfig", "mondial"},
		{cfg.imdb != nil, "WithIMDBConfig", "imdb"},
		{cfg.nba != nil, "WithNBAConfig", "nba"},
	} {
		if mismatch.set && key != mismatch.wants {
			return nil, fmt.Errorf("prism: %s applies to Open(%q), not Open(%q)", mismatch.option, mismatch.wants, name)
		}
	}
	var (
		db  *Database
		err error
	)
	switch {
	case cfg.mondial != nil:
		db, err = dataset.Mondial(*cfg.mondial)
	case cfg.imdb != nil:
		db, err = dataset.IMDB(*cfg.imdb)
	case cfg.nba != nil:
		db, err = dataset.NBA(*cfg.nba)
	default:
		// The scheme check runs on the raw (trimmed, case-preserved) name:
		// file paths are case-sensitive on most filesystems, so only the
		// prefix itself is matched case-insensitively.
		if path, ok := cutFileScheme(name); ok {
			db, err = dataset.Open(path)
		} else {
			db, err = dataset.ByName(name)
		}
	}
	if err != nil {
		return nil, err
	}
	return NewEngine(db), nil
}

// cutFileScheme splits a "file:PATH" Open name, preserving the path's
// case and reporting whether the scheme was present.
func cutFileScheme(name string) (string, bool) {
	trimmed := strings.TrimSpace(name)
	if len(trimmed) < len("file:") || !strings.EqualFold(trimmed[:len("file:")], "file:") {
		return "", false
	}
	return trimmed[len("file:"):], true
}

// DatasetNames lists the bundled demo databases.
func DatasetNames() []string { return dataset.Names() }

// SampleRows returns up to limit rows of the named source table, for
// dataset previews. The limit must be positive: zero or negative sample
// sizes are rejected with ErrInvalidRequest rather than silently meaning
// "all rows", so a miscomputed size in a caller surfaces as a structured
// error instead of an unbounded dump.
func (e *Engine) SampleRows(table string, limit int) ([]Tuple, error) {
	if limit <= 0 {
		return nil, fmt.Errorf("%w: sample limit must be positive, got %d", api.ErrInvalidRequest, limit)
	}
	return e.inner.SampleRows(table, limit)
}

// Database returns the engine's source database.
func (e *Engine) Database() *Database { return e.inner.Database() }

// Discover runs one discovery round: it returns every Project-Join schema
// mapping query that satisfies the specification within the options' search
// bounds and time budget (60 seconds by default, as in the demo).
//
// Cancelling ctx aborts the round mid-validation: Discover then returns
// promptly with the partial Report accumulated so far and ctx.Err().
func (e *Engine) Discover(ctx context.Context, spec *Spec, opts Options) (*Report, error) {
	return e.inner.Discover(ctx, spec, opts)
}

// DiscoverStream runs one discovery round incrementally: the returned
// channel yields phase markers, validation progress, and each confirmed
// Mapping as soon as the scheduler resolves it — before the round
// completes. The stream ends with one EventDone carrying the final (or,
// after cancellation/timeout, partial) Report, after which the channel is
// closed. Receive until the channel closes; cancel ctx to abandon a round.
func (e *Engine) DiscoverStream(ctx context.Context, spec *Spec, opts Options) <-chan StreamEvent {
	return e.inner.DiscoverStream(ctx, spec, opts)
}

// RelatedColumns returns, per target column, the source columns whose
// contents and metadata make them feasible bindings — step #1 of discovery.
func (e *Engine) RelatedColumns(spec *Spec) ([][]ColumnRef, error) {
	return e.inner.RelatedColumns(spec)
}

// Model exposes the Bayesian selectivity model trained during
// preprocessing (primarily for inspection and experiments).
func (e *Engine) Model() *bayes.Model { return e.inner.Model() }

// ParseConstraints assembles a constraint specification from the raw grids
// of the demo's Description section: numColumns target columns, any number
// of sample rows (each cell in the multiresolution constraint language) and
// an optional metadata row.
func ParseConstraints(numColumns int, sampleRows [][]string, metadataRow []string) (*Spec, error) {
	return constraint.ParseGrid(numColumns, sampleRows, metadataRow)
}

// ParseValueConstraint parses one cell of the sample-constraint grid,
// e.g. "California || Nevada" or ">= 100 && <= 600".
func ParseValueConstraint(cell string) (lang.ValueExpr, error) {
	return lang.ParseValueConstraint(cell)
}

// ParseMetadataConstraint parses one cell of the metadata-constraint grid,
// e.g. "DataType=='decimal' AND MinValue>='0'".
func ParseMetadataConstraint(cell string) (lang.MetaExpr, error) {
	return lang.ParseMetadataConstraint(cell)
}

// Explain builds the query-graph explanation of a discovered mapping with
// the selected constraints overlaid (Figure 4c). Use AllConstraints to show
// everything.
func Explain(m Mapping, spec *Spec, sel ConstraintSelection) *ExplainGraph {
	return explain.Build(m.Candidate, spec, m.SQL, sel)
}

// AllConstraints selects every user constraint for display in Explain.
func AllConstraints() ConstraintSelection { return explain.AllConstraints() }

// SQL renders a Project-Join plan as SQL text.
func SQL(p Plan) string { return sqlgen.Generate(p) }

// ParseSQL parses a Project-Join SELECT statement back into an executable
// plan, validating it against the database schema when sch is non-nil.
func ParseSQL(sql string, sch *Schema) (Plan, error) { return sqlgen.Parse(sql, sch) }

// Execute runs a Project-Join plan against a database.
func Execute(db *Database, p Plan) (*Result, error) { return db.Execute(p) }

// NewDatabase creates an empty in-memory database over a schema; use it to
// load your own source data instead of the bundled synthetic sets. Analyze
// (which NewEngine calls) freezes it into its per-column key dictionaries:
// load every row first, as writes after it fail with ErrFrozen.
//
//	sch := prism.NewSchema()
//	... add tables and foreign keys ...
//	db := prism.NewDatabase("mydb", sch)
//	db.InsertStrings("Lake", "Lake Tahoe", "497")
//	db.Analyze()
//	eng := prism.NewEngine(db)
func NewDatabase(name string, sch *Schema) *Database { return mem.NewDatabase(name, sch) }

// ErrFrozen is returned by every write (Insert, InsertStrings, BulkInsert)
// to a Database that Analyze has frozen; the write changes nothing.
var ErrFrozen = mem.ErrFrozen

// NewSchema creates an empty schema.
func NewSchema() *Schema { return schema.New() }

// NewTable declares a table schema. Each column is given as "Name:type" in
// declaration order; types are the constraint language's data types ("int",
// "decimal", "text", "date", "time").
//
//	lake, err := prism.NewTable("Lake", "Name:text", "Area:decimal")
func NewTable(name string, columns ...string) (*schema.Table, error) {
	cols := make([]schema.Column, 0, len(columns))
	for _, def := range columns {
		cname, ctype, ok := strings.Cut(def, ":")
		if !ok || cname == "" || ctype == "" {
			return nil, fmt.Errorf("prism: column definition %q is not of the form Name:type", def)
		}
		kind, err := value.ParseKind(ctype)
		if err != nil {
			return nil, fmt.Errorf("prism: column %s: %w", cname, err)
		}
		cols = append(cols, schema.Column{Name: cname, Type: kind})
	}
	return schema.NewTable(name, cols...)
}

// AddForeignKey declares a join edge between two columns given as
// "Table.Column" strings.
func AddForeignKey(sch *Schema, from, to string) error {
	fromRef, err := splitRef(from)
	if err != nil {
		return err
	}
	toRef, err := splitRef(to)
	if err != nil {
		return err
	}
	return sch.AddForeignKey(schema.ForeignKey{From: fromRef, To: toRef})
}

func splitRef(s string) (schema.ColumnRef, error) {
	table, column, ok := strings.Cut(s, ".")
	if !ok || table == "" || column == "" {
		return schema.ColumnRef{}, fmt.Errorf("prism: %q is not of the form Table.Column", s)
	}
	return schema.ColumnRef{Table: table, Column: column}, nil
}

// Candidate re-exports the candidate type for users who build explanation
// graphs or custom validation on top of the discovery output.
type Candidate = graphx.Candidate
