package exec

import (
	"errors"
	"fmt"
	"strings"

	"prism/internal/schema"
	"prism/internal/value"
)

// JoinEdge is one equi-join condition Left = Right between two tables.
type JoinEdge struct {
	Left  schema.ColumnRef
	Right schema.ColumnRef
}

// String renders the edge as "a.b = c.d".
func (e JoinEdge) String() string { return e.Left.String() + " = " + e.Right.String() }

// Plan is a Project-Join query plan: the class of schema mapping queries
// Prism synthesizes (§2.1 System Output). Plans are backend-neutral — every
// Executor implementation accepts the same Plan.
type Plan struct {
	// Tables lists every relation participating in the join (no duplicates).
	Tables []string
	// Joins are the equi-join conditions; for a candidate schema mapping
	// they form a tree over Tables.
	Joins []JoinEdge
	// Project lists the output columns in target-schema order.
	Project []schema.ColumnRef
	// Distinct removes duplicate projected tuples when set.
	Distinct bool
}

// String renders a compact description of the plan.
func (p Plan) String() string {
	var b strings.Builder
	b.WriteString("π(")
	for i, c := range p.Project {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.String())
	}
	b.WriteString(") ⋈(")
	for i, j := range p.Joins {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(j.String())
	}
	b.WriteString(") over ")
	b.WriteString(strings.Join(p.Tables, ", "))
	return b.String()
}

// Validate checks that every table and column referenced by the plan exists
// and that the join graph is connected.
func (p Plan) Validate(sch *schema.Schema) error {
	if len(p.Tables) == 0 {
		return errors.New("exec: plan has no tables")
	}
	seen := make(map[string]bool, len(p.Tables))
	for _, t := range p.Tables {
		if _, ok := sch.Table(t); !ok {
			return fmt.Errorf("exec: plan references unknown table %q", t)
		}
		key := strings.ToLower(t)
		if seen[key] {
			return fmt.Errorf("exec: plan lists table %q twice", t)
		}
		seen[key] = true
	}
	inPlan := func(table string) bool { return seen[strings.ToLower(table)] }
	for _, j := range p.Joins {
		for _, ref := range []schema.ColumnRef{j.Left, j.Right} {
			if _, err := sch.Resolve(ref); err != nil {
				return fmt.Errorf("exec: plan join %s: %w", j, err)
			}
			if !inPlan(ref.Table) {
				return fmt.Errorf("exec: plan join %s references table %q not in plan", j, ref.Table)
			}
		}
	}
	for _, ref := range p.Project {
		if _, err := sch.Resolve(ref); err != nil {
			return fmt.Errorf("exec: plan projection: %w", err)
		}
		if !inPlan(ref.Table) {
			return fmt.Errorf("exec: plan projects %s from table not in plan", ref)
		}
	}
	if len(p.Tables) > 1 && !p.connected() {
		return errors.New("exec: plan join graph is not connected")
	}
	return nil
}

func (p Plan) connected() bool {
	if len(p.Tables) == 0 {
		return false
	}
	adj := make(map[string][]string)
	for _, j := range p.Joins {
		a, b := strings.ToLower(j.Left.Table), strings.ToLower(j.Right.Table)
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	visited := make(map[string]bool)
	stack := []string{strings.ToLower(p.Tables[0])}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[n] {
			continue
		}
		visited[n] = true
		stack = append(stack, adj[n]...)
	}
	for _, t := range p.Tables {
		if !visited[strings.ToLower(t)] {
			return false
		}
	}
	return true
}

// ColumnPredicate is a single-column selection predicate; executors push
// predicates below the joins onto base-table scans.
type ColumnPredicate struct {
	// Ref names the constrained column; it must belong to a plan table.
	Ref schema.ColumnRef
	// Pred decides row membership and is the authoritative semantics of the
	// predicate; it must be non-nil.
	Pred func(value.Value) bool
	// Keywords, when non-empty, asserts that every value satisfying Pred
	// matches at least one of these keywords under Value.MatchesKeyword —
	// i.e. the predicate is equality-shaped (a sample cell or a disjunction
	// of sample cells). ColumnIndex.Select evaluates Pred only on the value
	// ids the column's key dictionary lists for these keywords, so an
	// over-complete keyword list is safe while an incomplete one is not.
	Keywords []string
	// Bounds, when non-nil, is a numeric interval cover of the predicate:
	// every value v with a non-NaN v.Float() view that satisfies Pred lies
	// inside the interval, and Pred rejects NULL. NaN-viewed values (e.g.
	// the text "nan") are OUTSIDE the contract — value.Compare orders NaN
	// below every number, so they can satisfy ordering predicates while
	// escaping any finite interval; consumers must not prune columns that
	// may contain them (colexec prunes only a column every value of which
	// has a non-NaN view). Executors compare the interval against the
	// range of a column's views to skip whole selections; the cover may be
	// loose (a selection is merely not skipped) but must never be tight in
	// the wrong direction (a wrong skip would prune a valid mapping).
	// lang.NumericBounds derives covers from constraint expressions.
	Bounds *NumericBounds
	// BoundsExact, when set (requires non-nil Bounds with both sides
	// present), strengthens the cover to a characterisation: Pred(v) holds
	// iff v has a numeric view f (value.Value.Float) with Lo <= f <= Hi.
	// Executors may then answer the predicate from the column's sorted
	// numeric views (ColumnIndex.Select) instead of invoking Pred.
	// lang.ExactRangeBounds derives exact bounds from pure numeric range
	// expressions.
	BoundsExact bool
	// ID, when non-zero, names the predicate within the round's
	// SelectionMemo (ExecOptions.Selections): two predicates handed to one
	// table with equal non-zero ID must have the same Pred, Keywords, Bounds
	// and BoundsExact, so the rows one of them selects on a column are the
	// rows the other would. Zero is anonymous: the predicate is evaluated by
	// every execution that carries it and never kept, which is what every
	// hand-built predicate gets. filter.Cells issues the ids, one per
	// constrained (sample, target column) cell of its specification.
	ID uint32
}

// NumericBounds is a closed numeric interval cover [Lo, Hi] for a
// predicate, with either side optionally unbounded. See
// ColumnPredicate.Bounds for the contract.
type NumericBounds struct {
	Lo, Hi       float64
	HasLo, HasHi bool
}

// ExecOptions tune plan execution. The zero value executes the plan fully.
type ExecOptions struct {
	// ColumnPredicates are pushed down to base-table scans.
	ColumnPredicates []ColumnPredicate
	// TuplePredicate, when non-nil, filters projected tuples.
	TuplePredicate func(value.Tuple) bool
	// Limit stops execution after this many result tuples (0 = unlimited).
	Limit int
	// MaxIntermediate aborts execution when one join step has formed more
	// than this many partial tuples (0 = unlimited); a guard for runaway
	// joins. A backend that builds each step whole (mem, the columnar
	// batched scan) checks the step's output; the columnar walk counts the
	// partial tuples it has formed per level, which comes to the same
	// number when the walk runs to exhaustion — a run that has its tuples
	// before any level outgrows the bound simply answers.
	MaxIntermediate int
	// Interrupt, when non-nil, is polled periodically during execution;
	// returning true aborts the run with ErrInterrupted. It is how context
	// cancellation reaches the row-processing loops without executors
	// depending on context directly.
	Interrupt func() bool
	// Selections, when non-nil, is the round's table of selections, which
	// the executions and the failure estimator of one round share: an
	// executor takes the rows of an identified predicate
	// (ColumnPredicate.ID) from it (SelectionMemo.Select), which selects
	// them the first time anyone asks. It changes no result, only the work:
	// nil (the zero value) and anonymous predicates execute exactly as
	// without it, and an executor may ignore it altogether (mem does). The
	// owner hands it to one executor only and drops it with the round.
	Selections *SelectionMemo
}

// ErrInterrupted is returned by Executor.ExecuteWith when
// ExecOptions.Interrupt reports that execution should stop (typically a
// cancelled context).
var ErrInterrupted = errors.New("exec: execution interrupted")

// InterruptEvery bounds how many row-loop iterations run between Interrupt
// polls; small enough that cancellation lands promptly, large enough that
// the poll is free on the hot path.
const InterruptEvery = 1024

// InterruptChecker wraps ExecOptions.Interrupt with the polling cadence
// executors share. The zero value (nil function) never fires.
type InterruptChecker struct {
	fn    func() bool
	steps int
}

// NewInterruptChecker builds a checker around an ExecOptions.Interrupt
// function (which may be nil).
func NewInterruptChecker(fn func() bool) *InterruptChecker {
	return &InterruptChecker{fn: fn}
}

// Reset rearms the checker for a new execution. Executors that pool their
// per-execution state embed an InterruptChecker by value and Reset it
// instead of allocating a fresh checker per run.
func (c *InterruptChecker) Reset(fn func() bool) {
	c.fn = fn
	c.steps = 0
}

// Hit reports whether execution should abort; it polls the underlying
// function once every interruptEvery calls. A nil checker never fires.
func (c *InterruptChecker) Hit() bool {
	if c == nil || c.fn == nil {
		return false
	}
	c.steps++
	return c.steps%InterruptEvery == 0 && c.fn()
}

// ExecStats reports work performed by one execution; the filter-scheduling
// experiments use it as the validation cost measure. Counters describe the
// work the executor actually did, so they are comparable within one
// executor but not across executors (an indexed executor scans fewer rows
// for the same answer).
type ExecStats struct {
	// RowsScanned counts the base-table rows read: every row a scan tests
	// against a predicate and, for an index selection — the rows of a
	// predicate read off the column's key dictionary (ColumnIndex.Select),
	// which touches no row it does not keep — the rows it selects. A
	// selection of ExecOptions.Selections counts once per round: the first
	// execution of the round to install it adds its rows here, whether it
	// selected them or the round's estimator had, and every later one adds
	// one to SelectionsReused instead.
	RowsScanned int
	// IntermediateRows counts the partial join tuples formed across all
	// join steps, before residual-edge filters. An engine that builds each
	// step whole reports the whole join; the columnar walk reports what it
	// formed before it stopped — the same sum on exhaustion, a handful when
	// the first tuples were enough.
	IntermediateRows int
	// JoinsExecuted counts the join steps the execution answered: every
	// step of the plan for a completed run, the deepest step entered for
	// one that was interrupted or aborted.
	JoinsExecuted     int
	ResultRows        int
	TerminatedEarly   bool // stopped due to Limit
	AbortedTooLarge   bool // stopped due to MaxIntermediate
	PredicateFiltered int  // base rows a scan tested and removed (mem; the columnar executor selects, it removes none)
	// SelectionsReused counts the predicate selections this execution read
	// from ExecOptions.Selections that an earlier execution of the round had
	// installed (see RowsScanned).
	SelectionsReused int

	// BlocksPruned is always 0: no executor keeps block zone maps.
	//
	// Deprecated: ROADMAP item 0e removes it.
	BlocksPruned int
	// ZonesPruned (columnar executor) counts whole-table vetoes: selections
	// the column's key dictionary (its views' range, its NULL rows) proved
	// empty without touching a row.
	ZonesPruned int

	// ScratchBytes (columnar executor) is the pooled scratch the execution
	// drew, counted by length in use — selection bitmaps and id vectors,
	// level cursors, the projection tuple — so it is a
	// function of the execution, not of which pooled state served it. It is
	// a high-water mark, so Add takes the max rather than the sum —
	// accumulated over a round it reports the round's peak, not a
	// meaningless total.
	ScratchBytes int
	// PeakIntermediateBytes is always 0: no executor sets it.
	//
	// Deprecated: ROADMAP item 0 removes it together with
	// timedExecutor.ExistsBatch.
	PeakIntermediateBytes int
}

// Add accumulates another execution's stats into s. Work counters sum;
// ScratchBytes is a peak and takes the max.
func (s *ExecStats) Add(o ExecStats) {
	s.RowsScanned += o.RowsScanned
	s.IntermediateRows += o.IntermediateRows
	s.JoinsExecuted += o.JoinsExecuted
	s.ResultRows += o.ResultRows
	s.PredicateFiltered += o.PredicateFiltered
	s.SelectionsReused += o.SelectionsReused
	s.BlocksPruned += o.BlocksPruned
	s.ZonesPruned += o.ZonesPruned
	s.TerminatedEarly = s.TerminatedEarly || o.TerminatedEarly
	s.AbortedTooLarge = s.AbortedTooLarge || o.AbortedTooLarge
	if o.ScratchBytes > s.ScratchBytes {
		s.ScratchBytes = o.ScratchBytes
	}
}

// Result is the output of a plan execution.
type Result struct {
	Columns []schema.ColumnRef
	Rows    []value.Tuple
	Stats   ExecStats
}

// NumRows returns the number of result rows.
func (r *Result) NumRows() int { return len(r.Rows) }

// Contains reports whether any result row equals the given tuple
// (value.Compare semantics per cell).
func (r *Result) Contains(t value.Tuple) bool {
	for _, row := range r.Rows {
		if row.Equal(t) {
			return true
		}
	}
	return false
}

// String renders the result as a simple aligned text table.
func (r *Result) String() string {
	var b strings.Builder
	headers := make([]string, len(r.Columns))
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		headers[i] = c.String()
		widths[i] = len(headers[i])
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			cells[ri][ci] = v.String()
			if len(cells[ri][ci]) > widths[ci] {
				widths[ci] = len(cells[ri][ci])
			}
		}
	}
	writeRow := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(v)
			for pad := len(v); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}

// StartTable picks the table a plan's join execution starts from: the one
// with the smallest post-push-down cardinality (declaration order breaks
// ties). Both bundled executors start here and then extend the join by
// scanning the plan's edge list in declaration order for an edge touching
// the joined set — it is that shared edge-scan discipline, together with
// probing in base-row order, that makes their result row order identical;
// StartTable only supplies the common anchor.
func StartTable(p Plan, size func(table string) int) string {
	best := p.Tables[0]
	bestSize := size(best)
	for _, t := range p.Tables[1:] {
		if s := size(t); s < bestSize {
			best, bestSize = t, s
		}
	}
	return best
}
