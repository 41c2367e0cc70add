// Package colexec is Prism's columnar executor: the second exec.Executor
// implementation, built for the validation phase of the interactive loop
// (§2.3), where thousands of small Project-Join probes run against one
// read-only database per discovery round.
//
// A column is the source's key dictionary of it (exec.ColumnIndex, built
// once by the source and shared with the statistics and the Bayesian
// model), and nothing else: building the executor reads no cell. The
// dictionary holds every stored value (the value of a row's id, a variant's
// own, NULL), and from it:
//
//   - hash joins probe the prebuilt key → rows table instead of re-hashing
//     the inner relation on every execution, and never render a key;
//   - equality-shaped pushed-down predicates select candidate rows by point
//     lookup, through the keyword → value ids table and the sorted numeric
//     views;
//   - a predicate whose numeric interval cover (exec.ColumnPredicate.Bounds)
//     lies outside the views' range, or that rejects NULL on an all-NULL
//     column, is proved empty without touching a row;
//   - a predicate no keyword seeds is answered once per value id (a pure
//     numeric range by two binary searches) instead of once per row, and
//     verifying more candidates than the column has ids evaluates the
//     predicate once per id and reads each candidate's verdict by its id.
//
// A single execution (Execute, ExecuteWith, Exists) never builds the join:
// after the pushed-down predicates have reduced every base table to a
// selection (an ascending id vector plus a rowset bitmap), the plan is
// answered by one depth-first walk over the prebuilt join indexes — one
// cursor per joined table, the projection gathered only at full depth —
// that stops as soon as the caller has the tuples it asked for (the first
// one for Exists, Limit for a preview). A depth-first walk emits tuples in
// (start row, posting position, ...) order, which is the order the mem
// reference executor produces (both start from the smallest filtered
// table, extend the join by scanning plan edges in declaration order, and
// probe in base-row order); the cross-executor equivalence tests rely on
// it.
//
// The probes of one discovery round put the same few cells on the same few
// source columns over and over. A selection no keyword seeds and the
// dictionary does not prove empty is therefore taken from the round's
// exec.SelectionMemo when the caller brings one (exec.ExecOptions.Selections)
// and says which predicate is which (exec.ColumnPredicate.ID): the first
// execution to need a (column, predicate) pair selects it from the key
// dictionary and publishes an immutable id vector and bitmap, every later
// one installs that selection as it is. The memo belongs to the caller and dies with its
// round; the executor keeps nothing. Without a memo, and for anonymous
// predicates, every execution selects for itself into pooled scratch.
//
// All per-execution scratch (level cursors, bitmaps, id buffers, the
// projection tuple) comes from a sync.Pool of execution states, so a warm
// existence-style validation probe runs without allocating, with a memo
// (a hit) or without one (guarded by AllocsPerRun tests).
package colexec

import (
	"fmt"
	"strings"
	"sync"
	"unsafe"

	"prism/internal/exec"
	"prism/internal/rowset"
	"prism/internal/schema"
	"prism/internal/value"
)

func init() {
	// Deprecated: ROADMAP item 0e deletes the registry; the files under
	// benchmark/ still build the executor with exec.New(exec.DefaultName, db).
	exec.Register(exec.DefaultName, New)
}

// column is one table column: the source's key dictionary of it, which
// stores its values, joins it, seeds and answers its selections.
type column = exec.ColumnIndex

// joinRows returns the ascending rows of build that join row ri of probe:
// the rows holding the key row ri holds, through the two key dictionaries.
// NULL never joins.
func joinRows(build, probe *column, ri int32) []int32 {
	id := probe.RowID[ri]
	if int(id) == len(probe.Keys) {
		return nil
	}
	return build.RowsOf(probe.Keys[id])
}

// provesEmpty reports whether the column's dictionary proves that no row
// satisfies cp before any row is read. Keyword and bounded predicates
// reject NULL by contract, so an all-NULL column satisfies neither. A
// bounded predicate is empty on a column every value of which has a numeric
// view (the precondition of exec.ColumnPredicate.Bounds' soundness argument:
// there Value.Compare coincides with float comparison) when its interval
// cover lies outside the views' range.
func provesEmpty(c *column, cp *exec.ColumnPredicate) bool {
	if c.NumRows() == len(c.NullRows()) {
		return cp.Bounds != nil || len(cp.Keywords) > 0
	}
	b := cp.Bounds
	if b == nil || len(c.ByView) != len(c.Vals) {
		return false
	}
	return (b.HasLo && c.Views[len(c.Views)-1] < b.Lo) || (b.HasHi && c.Views[0] > b.Hi)
}

// table is the columnar image of one relation.
type table struct {
	name    string
	sch     *schema.Table
	numRows int
	cols    []*column
}

// columnIndex resolves a column name without allocating (the schema's map
// lookup lower-cases the name first, which allocates on the hot path).
func (t *table) columnIndex(name string) int {
	for i := range t.sch.Columns {
		if strings.EqualFold(t.sch.Columns[i].Name, name) {
			return i
		}
	}
	return -1
}

// Executor is the columnar engine. It is read-only and safe for concurrent
// use once built; all mutable per-execution state lives in pooled
// execState values.
type Executor struct {
	src    exec.Source
	tables []*table          // plan binding scans this (EqualFold, no alloc)
	byName map[string]*table // catalog lookups (SampleRows, NumRows)
	// identity is the shared 0..maxRows-1 row-id vector an unfiltered
	// start table is enumerated from. It is read-only.
	identity []int32
	states   sync.Pool // *execState
}

// New builds the columnar executor over a source: its tables, each column
// being the source's key dictionary of it. Catalog queries (statistics,
// keyword membership) are delegated to the source, so they agree exactly
// with the reference engine's preprocessing.
func New(src exec.Source) (exec.Executor, error) {
	e := &Executor{src: src, byName: make(map[string]*table)}
	maxRows := 0
	for _, ts := range src.Schema().Tables() {
		t := &table{name: ts.Name, sch: ts}
		for _, col := range ts.Columns {
			ref := schema.ColumnRef{Table: ts.Name, Column: col.Name}
			// The first call has the source index every column, if it has
			// not yet; the rest are look-ups.
			idx, err := src.ColumnIndex(ref)
			if err != nil {
				return nil, fmt.Errorf("colexec: indexing %s: %w", ref, err)
			}
			t.cols = append(t.cols, idx)
			t.numRows = idx.NumRows()
		}
		maxRows = max(maxRows, t.numRows)
		e.tables = append(e.tables, t)
		e.byName[strings.ToLower(ts.Name)] = t
	}
	e.identity = make([]int32, maxRows)
	for i := range e.identity {
		e.identity[i] = int32(i)
	}
	return e, nil
}

// Schema implements exec.Metadata.
func (e *Executor) Schema() *schema.Schema { return e.src.Schema() }

// NumRows implements exec.Metadata: a catalog lookup by lower-cased name.
// The scheduler's default cost model asks once per table per run and keeps
// the answer, so the lookup is not on any per-probe path.
func (e *Executor) NumRows(tbl string) int {
	if t, ok := e.byName[strings.ToLower(tbl)]; ok {
		return t.numRows
	}
	return 0
}

// Stats implements exec.Metadata by delegating to the source's
// preprocessing.
func (e *Executor) Stats(ref schema.ColumnRef) (schema.Stats, bool) { return e.src.Stats(ref) }

// AllStats implements exec.Metadata by delegating to the source's
// preprocessing.
func (e *Executor) AllStats() []schema.Stats { return e.src.AllStats() }

// ColumnHasKeyword implements exec.Metadata by delegating to the source,
// which answers from the key dictionaries that seed this package's keyword
// selections.
func (e *Executor) ColumnHasKeyword(ref schema.ColumnRef, keyword string) bool {
	return e.src.ColumnHasKeyword(ref, keyword)
}

// SampleRows implements exec.Executor by gathering the first limit rows
// from the column stores.
func (e *Executor) SampleRows(tbl string, limit int) ([]value.Tuple, error) {
	t, ok := e.byName[strings.ToLower(tbl)]
	if !ok {
		return nil, fmt.Errorf("%w %q (columnar)", exec.ErrUnknownTable, tbl)
	}
	n := t.numRows
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]value.Tuple, n)
	for ri := 0; ri < n; ri++ {
		row := make(value.Tuple, len(t.cols))
		for ci, c := range t.cols {
			row[ci] = c.Value(int32(ri))
		}
		out[ri] = row
	}
	return out, nil
}

// Execute runs the plan and returns all matching projected tuples.
func (e *Executor) Execute(p exec.Plan) (*exec.Result, error) {
	return e.ExecuteWith(p, exec.ExecOptions{})
}

// ExecuteWith implements exec.Executor.
func (e *Executor) ExecuteWith(p exec.Plan, opts exec.ExecOptions) (*exec.Result, error) {
	if err := faultExec.Hit(); err != nil {
		return nil, err
	}
	st := e.getState()
	defer e.putState(st)
	res := &exec.Result{}
	var dedup *exec.TupleDeduper
	if p.Distinct && opts.Limit != 1 {
		// With Limit == 1 the first emitted tuple can never be a duplicate,
		// so the deduper is skipped (Exists runs through this fast path).
		dedup = exec.NewTupleDeduper()
	}
	stats, err := e.run(st, p, opts, func(proj value.Tuple) bool {
		if dedup != nil && dedup.Seen(proj) {
			return true
		}
		res.Rows = append(res.Rows, proj.Clone())
		return opts.Limit <= 0 || len(res.Rows) < opts.Limit
	})
	stats.ScratchBytes = st.scratchFootprint()
	if err != nil {
		if stats.hasPartial {
			// Interrupt / runaway-join abort: report the partial stats the
			// way the reference engine does.
			return &exec.Result{Columns: p.Project, Stats: stats.ExecStats}, err
		}
		return nil, err
	}
	res.Columns = append([]schema.ColumnRef(nil), p.Project...)
	stats.ResultRows = len(res.Rows)
	if opts.Limit > 0 && len(res.Rows) >= opts.Limit {
		stats.TerminatedEarly = true
	}
	res.Stats = stats.ExecStats
	return res, nil
}

// Exists implements exec.Executor. It materialises nothing: the join is
// walked only as far as the first tuple the predicates accept, the
// projection tuple is pooled scratch and no Result is built, which keeps
// the warm validation probe allocation-free and its cost independent of
// the size of an answer nobody reads.
func (e *Executor) Exists(p exec.Plan, opts exec.ExecOptions) (bool, exec.ExecStats, error) {
	if err := faultScan.Hit(); err != nil {
		return false, exec.ExecStats{}, err
	}
	st := e.getState()
	defer e.putState(st)
	opts.Limit = 1
	found := false
	stats, err := e.run(st, p, opts, func(value.Tuple) bool {
		found = true
		return false
	})
	stats.ScratchBytes = st.scratchFootprint()
	if found {
		stats.ResultRows = 1
		stats.TerminatedEarly = true
	}
	return found, stats.ExecStats, err
}

// ExistsBatch implements exec.Executor.
//
// Deprecated: ROADMAP item 0 removes it together with
// timedExecutor.ExistsBatch.
func (e *Executor) ExistsBatch(p exec.Plan, sets []exec.PredicateSet, opts exec.ExecOptions) ([]exec.Verdict, exec.ExecStats, error) {
	return exec.SequentialExistsBatch(e, p, sets, opts)
}

// runStats carries execution statistics plus whether an error left
// meaningful partial stats behind (interrupts and intermediate-size
// aborts do; binding errors do not).
type runStats struct {
	exec.ExecStats
	hasPartial bool
}

// boundPred is a pushed-down predicate bound to its table and column.
type boundPred struct {
	cp  exec.ColumnPredicate
	tab int // index into execState.tabs
	ci  int
}

// boundJoin is a plan join edge resolved against the column stores once,
// at bind time: the tables as indexes into execState.tabs plus the two
// columns. Level planning and residual checks read these instead of
// resolving names inside their loops.
type boundJoin struct {
	lt, rt int
	lc, rc *column
}

// joinLevel is one level of the planned join. Level 0 enumerates the start
// table's selection; level i > 0 places table tab by probing buildCol's
// prebuilt join index with the key probeCol holds on the row already
// placed at level probeLvl, keeping only rows of the table's selection bm
// (nil = all rows). execState.slotOf maps a table to its level.
type joinLevel struct {
	tab                int
	probeLvl           int
	probeCol, buildCol *column
	bm                 *rowset.Bitmap
	// residuals[resLo:resHi] are the plan edges this level closes: both
	// endpoints placed, checked on every partial tuple formed here.
	resLo, resHi int

	// Walk cursor: the id list being enumerated, the position in it, and
	// how many partial tuples the walk has formed at this level.
	list   []int32
	pos    int
	formed int
}

// gather is one projected column: the table it reads and, once the levels
// are planned, that table's level.
type gather struct {
	tab, slot int
	col       *column
}

// predCheck is the per-predicate verification state of one selectRows
// call; when verdict is non-nil the predicate was pre-evaluated per value
// id, NULL's included.
type predCheck struct {
	pred    func(value.Value) bool
	col     *column
	verdict []bool
}

// execState is the pooled per-execution scratch: bound plan state,
// bitmaps, id buffers and the projection tuple. Nothing in it
// survives an execution; pooling exists so the warm path never allocates.
type execState struct {
	interrupt exec.InterruptChecker

	tabs []*table
	// sels holds the post-push-down row set of every plan table, nil for
	// "all rows": pooled scratch (selArena) or, read-only, a selection owned
	// by the round's memo.
	sels   []*exec.Selection
	preds  []boundPred
	joins  []boundJoin
	slotOf []int
	checks []predCheck

	// The planned join (planLevels) and the walk's current row id per
	// level.
	levels    []joinLevel
	residuals []boundJoin
	row       []int32

	selArena []exec.Selection
	selUsed  int
	bitmaps  []*rowset.Bitmap
	bmUsed   int
	idBufs   [][]int32
	idUsed   int
	verdicts [][]bool
	vdUsed   int

	gathers []gather
	scratch value.Tuple
}

func (e *Executor) getState() *execState {
	if st, ok := e.states.Get().(*execState); ok {
		return st
	}
	return &execState{}
}

func (e *Executor) putState(st *execState) {
	st.reset()
	e.states.Put(st)
}

// reset drops every reference into request-lifetime data (predicate
// closures over the spec, the context-capturing interrupt function,
// projected values) so an idle pool pins nothing; the int32/bitmap arenas
// are kept for reuse.
func (st *execState) reset() {
	st.interrupt.Reset(nil)
	st.tabs = truncate(st.tabs)
	st.sels = truncate(st.sels)
	st.preds = truncate(st.preds)
	st.joins = truncate(st.joins)
	st.levels = truncate(st.levels)
	st.residuals = truncate(st.residuals)
	st.checks = truncate(st.checks)
	st.gathers = truncate(st.gathers)
	clear(st.scratch)
	st.slotOf = st.slotOf[:0]
	st.row = st.row[:0]
	st.selUsed, st.bmUsed, st.idUsed, st.vdUsed = 0, 0, 0, 0
}

// scratchFootprint reports the bytes of pooled scratch this execution
// drew, by length in use: the bitmaps, id buffers and verdict tables it
// took from the arenas, the planned levels with the walk's row vector, and
// the projection tuple. Capacity a larger, earlier execution left behind in
// the same pooled state is not counted, so the figure is a function of
// the execution and not of which state the pool handed out. It is
// recorded as ExecStats.ScratchBytes; computing it touches only slice
// headers (no allocation, a handful of iterations).
func (st *execState) scratchFootprint() int {
	n := 0
	for _, bm := range st.bitmaps[:st.bmUsed] {
		n += (bm.Len() + 63) / 64 * 8
	}
	for _, b := range st.idBufs[:st.idUsed] {
		n += len(b) * 4
	}
	for _, v := range st.verdicts[:st.vdUsed] {
		n += len(v)
	}
	n += len(st.levels)*int(unsafe.Sizeof(joinLevel{})) + len(st.row)*4
	n += len(st.gathers) * int(unsafe.Sizeof(value.Value{}))
	return n
}

// truncate zeroes a slice through its capacity and returns it empty, so
// pooled backing arrays keep their storage but not their references.
func truncate[T any](s []T) []T {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

func (st *execState) getSelection() *exec.Selection {
	if st.selUsed == len(st.selArena) {
		st.selArena = append(st.selArena, exec.Selection{})
	}
	s := &st.selArena[st.selUsed]
	st.selUsed++
	s.IDs = nil
	s.Rows = nil
	return s
}

func (st *execState) getBitmap(n int) *rowset.Bitmap {
	if st.bmUsed == len(st.bitmaps) {
		st.bitmaps = append(st.bitmaps, rowset.New(n))
	}
	b := st.bitmaps[st.bmUsed]
	st.bmUsed++
	b.Reset(n)
	return b
}

// getIDs hands out a reusable id buffer and its arena slot; callers store
// the (possibly append-grown) final slice back with keepIDs so the
// capacity is retained for later executions.
func (st *execState) getIDs() (int, []int32) {
	if st.idUsed == len(st.idBufs) {
		st.idBufs = append(st.idBufs, nil)
	}
	slot := st.idUsed
	st.idUsed++
	st.idBufs[slot] = st.idBufs[slot][:0]
	return slot, st.idBufs[slot]
}

func (st *execState) keepIDs(slot int, buf []int32) { st.idBufs[slot] = buf }

func (st *execState) getVerdict(n int) []bool {
	if st.vdUsed == len(st.verdicts) {
		st.verdicts = append(st.verdicts, nil)
	}
	v := st.verdicts[st.vdUsed]
	if cap(v) < n {
		v = make([]bool, n)
	}
	st.verdicts[st.vdUsed] = v[:n]
	st.vdUsed++
	return v[:n]
}

// bind resolves the plan against the column stores: tables, pushed-down
// predicates, joins and the projection. It performs the structural
// validation the reference engine delegates to Plan.Validate, but without
// per-call maps or lower-cased name copies.
func (e *Executor) bind(st *execState, p exec.Plan, opts exec.ExecOptions) error {
	if len(p.Tables) == 0 {
		return fmt.Errorf("colexec: plan has no tables")
	}
	if len(p.Tables) > 64 {
		// Join bookkeeping uses table-index bitmasks; Prism's candidate
		// plans join at most a handful of tables (Options.MaxTables).
		return fmt.Errorf("colexec: plan joins %d tables, more than the supported 64", len(p.Tables))
	}
	for i, name := range p.Tables {
		var t *table
		for _, cand := range e.tables {
			if strings.EqualFold(cand.name, name) {
				t = cand
				break
			}
		}
		if t == nil {
			return fmt.Errorf("colexec: plan references unknown table %q", name)
		}
		for j := 0; j < i; j++ {
			if strings.EqualFold(p.Tables[j], name) {
				return fmt.Errorf("colexec: plan lists table %q twice", name)
			}
		}
		st.tabs = append(st.tabs, t)
		st.sels = append(st.sels, nil)
		st.slotOf = append(st.slotOf, -1)
	}
	for _, cp := range opts.ColumnPredicates {
		ti := st.tabIndex(cp.Ref.Table)
		if ti < 0 {
			// Predicates on tables outside the plan are ignored, matching
			// the reference engine's per-plan-table grouping.
			continue
		}
		ci := st.tabs[ti].columnIndex(cp.Ref.Column)
		if ci < 0 {
			return fmt.Errorf("colexec: predicate column %s not in table %s", cp.Ref, st.tabs[ti].name)
		}
		st.preds = append(st.preds, boundPred{cp: cp, tab: ti, ci: ci})
	}
	for _, j := range p.Joins {
		lt, lc, err := st.columnOf(j, j.Left)
		if err != nil {
			return err
		}
		rt, rc, err := st.columnOf(j, j.Right)
		if err != nil {
			return err
		}
		st.joins = append(st.joins, boundJoin{lt: lt, rt: rt, lc: lc, rc: rc})
	}
	// Reject disconnected join graphs up front (the reference engine does so
	// in Plan.Validate): a fixpoint over the edge list, O(tables × joins) on
	// a bitmask of table indexes, reachability taken from table 0.
	reach := uint64(1)
	for changed := true; changed; {
		changed = false
		for i := range st.joins {
			ends := uint64(1)<<uint(st.joins[i].lt) | uint64(1)<<uint(st.joins[i].rt)
			if reach&ends != 0 && reach&ends != ends {
				reach |= ends
				changed = true
			}
		}
	}
	if reach != (uint64(1)<<uint(len(st.tabs)))-1 {
		return fmt.Errorf("colexec: plan join graph is not connected")
	}
	for _, ref := range p.Project {
		ti := st.tabIndex(ref.Table)
		if ti < 0 {
			return fmt.Errorf("colexec: plan projects %s from table not in plan", ref)
		}
		ci := st.tabs[ti].columnIndex(ref.Column)
		if ci < 0 {
			return fmt.Errorf("colexec: unknown column %q in table %q", ref.Column, ref.Table)
		}
		st.gathers = append(st.gathers, gather{tab: ti, col: st.tabs[ti].cols[ci]})
	}
	if cap(st.scratch) < len(st.gathers) {
		st.scratch = make(value.Tuple, len(st.gathers))
	}
	return nil
}

// columnOf resolves one endpoint of plan join j to its table index and
// column.
func (st *execState) columnOf(j exec.JoinEdge, ref schema.ColumnRef) (int, *column, error) {
	ti := st.tabIndex(ref.Table)
	if ti < 0 {
		return 0, nil, fmt.Errorf("colexec: plan join %s references table %q not in plan", j, ref.Table)
	}
	ci := st.tabs[ti].columnIndex(ref.Column)
	if ci < 0 {
		return 0, nil, fmt.Errorf("colexec: unknown column %q in table %q", ref.Column, ref.Table)
	}
	return ti, st.tabs[ti].cols[ci], nil
}

func (st *execState) tabIndex(name string) int {
	for i, t := range st.tabs {
		if strings.EqualFold(t.name, name) {
			return i
		}
	}
	return -1
}

func (st *execState) selCount(ti int) int {
	if st.sels[ti] == nil {
		return st.tabs[ti].numRows
	}
	return len(st.sels[ti].IDs)
}

// run executes the plan, calling yield with a shared scratch tuple for
// every surviving projected row (in the reference engine's row order)
// until yield returns false. The caller owns result assembly and
// Distinct/Limit bookkeeping around yield. Every single execution —
// Exists, Execute, limited previews — goes through here: bind, push the
// predicates down, plan the levels, walk.
func (e *Executor) run(st *execState, p exec.Plan, opts exec.ExecOptions, yield func(value.Tuple) bool) (runStats, error) {
	var stats runStats
	if err := e.bind(st, p, opts); err != nil {
		return stats, err
	}
	st.interrupt.Reset(opts.Interrupt)
	if aborted := e.pushDown(st, opts.Selections, &stats.ExecStats); aborted {
		stats.hasPartial = true
		return stats, exec.ErrInterrupted
	}
	if err := e.planLevels(st, p); err != nil {
		return stats, err
	}
	err := st.walk(opts, &stats, yield)
	for i := 1; i < len(st.levels); i++ {
		stats.IntermediateRows += st.levels[i].formed
	}
	return stats, err
}

// pushDown installs the selection of every table that carries a
// pushed-down predicate, through the round's memo when there is one. It
// reports whether execution was interrupted.
func (e *Executor) pushDown(st *execState, memo *exec.SelectionMemo, stats *exec.ExecStats) (aborted bool) {
	for ti := range st.tabs {
		for i := range st.preds {
			if st.preds[i].tab == ti {
				if e.selectRows(st, ti, memo, stats) {
					return true
				}
				break
			}
		}
	}
	return false
}

// planLevels orders the join over the already-installed selections. Same
// starting table and edge-scan discipline as the reference engine, over
// the filtered cardinalities, so both executors emit rows in the same
// order (both call exec.StartTable, so the tie-break can never silently
// diverge between backends): each further level takes the first edge in
// plan order that crosses from the placed tables to a new one, and every
// remaining edge whose endpoints are then both placed becomes a residual
// equality check of that level. Edges left at the end are the
// self-conditions of a single-table plan; they close on the last level.
func (e *Executor) planLevels(st *execState, p exec.Plan) error {
	start := st.tabIndex(exec.StartTable(p, func(tbl string) int {
		return st.selCount(st.tabIndex(tbl))
	}))
	ids := e.identity[:st.tabs[start].numRows]
	if sel := st.sels[start]; sel != nil {
		ids = sel.IDs
	}
	st.levels = append(st.levels[:0], joinLevel{tab: start, list: ids})
	st.residuals = st.residuals[:0]
	st.slotOf[start] = 0
	placed := uint64(1) << uint(start)
	isPlaced := func(ti int) bool { return placed>>uint(ti)&1 == 1 }

	remaining := st.joins
	for len(st.levels) < len(st.tabs) {
		edgeIdx := -1
		for i := range remaining {
			if isPlaced(remaining[i].lt) != isPlaced(remaining[i].rt) {
				edgeIdx = i
				break
			}
		}
		if edgeIdx < 0 {
			return fmt.Errorf("colexec: plan join graph is not connected")
		}
		j := remaining[edgeIdx]
		remaining = append(remaining[:edgeIdx], remaining[edgeIdx+1:]...)
		if !isPlaced(j.lt) {
			j = boundJoin{lt: j.rt, rt: j.lt, lc: j.rc, rc: j.lc}
		}
		l := joinLevel{tab: j.rt, probeLvl: st.slotOf[j.lt], probeCol: j.lc, buildCol: j.rc, resLo: len(st.residuals)}
		if sel := st.sels[j.rt]; sel != nil {
			l.bm = sel.Rows
		}
		st.slotOf[j.rt] = len(st.levels)
		placed |= 1 << uint(j.rt)
		kept := remaining[:0]
		for _, re := range remaining {
			if isPlaced(re.lt) && isPlaced(re.rt) {
				st.residuals = append(st.residuals, re)
			} else {
				kept = append(kept, re)
			}
		}
		remaining = kept
		l.resHi = len(st.residuals)
		st.levels = append(st.levels, l)
	}
	st.residuals = append(st.residuals, remaining...)
	st.levels[len(st.levels)-1].resHi = len(st.residuals)

	for gi := range st.gathers {
		st.gathers[gi].slot = st.slotOf[st.gathers[gi].tab]
	}
	if cap(st.row) < len(st.levels) {
		st.row = make([]int32, len(st.levels))
	}
	st.row = st.row[:len(st.levels)]
	return nil
}

// walk enumerates the planned join depth-first, one cursor per level:
// level 0 runs over the start selection's ids, level i over the posting
// list the join index holds for the key of the row placed at the level's
// probe level, filtered by the table's selection bitmap. A row that joins
// forms a partial tuple at its level (counted, and bounded by
// opts.MaxIntermediate per level — on exhaustion exactly the per-step
// output a materialising join would have built); one that also
// passes the level's residual edges is visited: the interrupt is polled
// and the walk descends, or at full depth gathers the projection, applies
// the tuple predicate and yields. It returns when yield says stop, so an
// existence probe costs the path to its first accepted tuple.
func (st *execState) walk(opts exec.ExecOptions, stats *runStats, yield func(value.Tuple) bool) error {
	lv := st.levels
	last := len(lv) - 1
	proj := st.scratch[:len(st.gathers)]
	for d := 0; d >= 0; {
		l := &lv[d]
		if l.pos == len(l.list) {
			d--
			continue
		}
		rid := l.list[l.pos]
		l.pos++
		if d > 0 {
			if l.bm != nil && !l.bm.Contains(rid) {
				continue
			}
			l.formed++
			if opts.MaxIntermediate > 0 && l.formed > opts.MaxIntermediate {
				stats.AbortedTooLarge = true
				stats.hasPartial = true
				return fmt.Errorf("colexec: intermediate result exceeded %d tuples", opts.MaxIntermediate)
			}
		}
		st.row[d] = rid
		if !st.residualsHold(l) {
			continue
		}
		if st.interrupt.Hit() {
			stats.hasPartial = true
			return exec.ErrInterrupted
		}
		if d < last {
			next := &lv[d+1]
			if d+1 > stats.JoinsExecuted {
				stats.JoinsExecuted = d + 1
			}
			next.list, next.pos = joinRows(next.buildCol, next.probeCol, st.row[next.probeLvl]), 0
			d++
			continue
		}
		for gi := range st.gathers {
			g := &st.gathers[gi]
			proj[gi] = g.col.Value(st.row[g.slot])
		}
		if opts.TuplePredicate != nil && !opts.TuplePredicate(proj) {
			continue
		}
		if !yield(proj) {
			break
		}
	}
	// A run that was not cut short answered every join step of the plan,
	// whether or not a row reached it.
	stats.JoinsExecuted = last
	return nil
}

// residualsHold reports whether the partial tuple in st.row satisfies the
// residual edges level l closes: equal, non-null values on both columns.
func (st *execState) residualsHold(l *joinLevel) bool {
	for i := l.resLo; i < l.resHi; i++ {
		re := &st.residuals[i]
		lv := re.lc.Value(st.row[st.slotOf[re.lt]])
		if lv.IsNull() || !lv.Equal(re.rc.Value(st.row[st.slotOf[re.rt]])) {
			return false
		}
	}
	return true
}

// selectRows applies table ti's pushed-down predicates and installs the
// surviving row set. It reports whether execution was interrupted.
//
//  1. The key dictionary vetoes whole selections (provesEmpty): a predicate
//     whose numeric interval cover lies outside the column's views — or any
//     keyword or bounded predicate over an all-NULL column — proves the
//     selection empty before any row is touched (counted as ZonesPruned).
//  2. Candidates come from an index. Keyword-equality predicates seed them
//     by point lookups; with several such predicates the candidate set is
//     the intersection of their sorted hit lists. A table no keyword seeds
//     takes its first predicate's rows from the column's key dictionary
//     (exec.ColumnIndex.Select), which answers that predicate exactly.
//  3. Every candidate is verified against every other predicate, and
//     keyword-seeded ones against the keyword predicates too — near-miss
//     index hits are filtered out. When there are more candidates than the
//     column has value ids, the predicate is evaluated once per id and
//     candidates are checked against the verdict table by id.
//
// When the round has a memo and every predicate on a table no keyword
// seeds is identified (exec.ColumnPredicate.ID), each predicate's rows are
// selected once per round (selectMemoised) instead of once per execution.
func (e *Executor) selectRows(st *execState, ti int, memo *exec.SelectionMemo, stats *exec.ExecStats) (aborted bool) {
	t := st.tabs[ti]

	// Phase 1: pruning off the dictionary.
	seeded, identified, firstPred := false, memo != nil, -1
	for i := range st.preds {
		bp := &st.preds[i]
		if bp.tab != ti {
			continue
		}
		if provesEmpty(t.cols[bp.ci], &bp.cp) {
			stats.ZonesPruned++
			sel := st.getSelection()
			sel.Rows = st.getBitmap(t.numRows)
			st.sels[ti] = sel
			return false
		}
		seeded = seeded || len(bp.cp.Keywords) > 0
		identified = identified && bp.cp.ID != 0
		if firstPred < 0 {
			firstPred = i
		}
	}
	if identified && !seeded {
		return st.selectMemoised(ti, memo, stats)
	}

	sel := st.getSelection()
	st.sels[ti] = sel
	sel.Rows = st.getBitmap(t.numRows)
	idSlot, ids := st.getIDs()

	// Phase 2: seed candidates from the keyword index, or else from the key
	// dictionary. sel.Rows holds the dictionary's candidates, or nothing.
	var candidates []int32
	if !seeded {
		bp := &st.preds[firstPred]
		aborted = t.cols[bp.ci].Select(&bp.cp, sel.Rows, &st.interrupt)
		candidates = sel.Rows.AppendTo(ids)
		stats.RowsScanned += len(candidates)
	}
	first := true
	scratchSlot := -1
	var scratch []int32
	for i := range st.preds {
		bp := &st.preds[i]
		if bp.tab != ti || len(bp.cp.Keywords) == 0 {
			continue
		}
		col := t.cols[bp.ci]
		hitsBM := st.getBitmap(t.numRows)
		for _, kw := range bp.cp.Keywords {
			addKeywordHits(col, kw, hitsBM)
		}
		if first {
			candidates = hitsBM.AppendTo(ids)
			first = false
			continue
		}
		if scratchSlot < 0 {
			scratchSlot, scratch = st.getIDs()
		}
		scratch = hitsBM.AppendTo(scratch[:0])
		st.keepIDs(scratchSlot, scratch)
		candidates = rowset.IntersectSorted(candidates[:0], candidates, scratch)
		if len(candidates) == 0 {
			break
		}
	}

	// Phase 3: verify every candidate with every predicate the seed does not
	// answer exactly.
	st.checks = st.checks[:0]
	for i := range st.preds {
		bp := &st.preds[i]
		if bp.tab != ti || i == firstPred && !seeded {
			continue
		}
		st.checks = append(st.checks, newPredCheck(&bp.cp, t.cols[bp.ci], len(candidates), st))
	}
	ids = candidates
	if len(st.checks) > 0 && !aborted {
		// In-place filter: survivors are appended into the same buffer the
		// candidates occupy; the write index never overtakes the read index.
		// A survivor is added to sel.Rows and a candidate turned down removed,
		// so it ends up holding the survivors whichever way it started.
		ids = candidates[:0]
		for _, id := range candidates {
			if st.interrupt.Hit() {
				aborted = true
				break
			}
			if st.verifyRow(id, stats) {
				ids = append(ids, id)
				sel.Rows.Add(id)
			} else {
				sel.Rows.Remove(id)
			}
		}
	}
	sel.IDs = ids
	st.keepIDs(idSlot, ids)
	return aborted
}

// selectMemoised installs the selection of a table whose predicates are all
// identified and unseeded: each predicate's rows are read from the round's
// memo, or selected from the column's key dictionary — once per (column,
// predicate) and round, by whichever execution gets there first — and left
// in it. One predicate installs the memo's own selection, read-only; several
// are intersected into pooled scratch. A predicate is selected over the
// whole column even when an earlier one on the same table has already turned
// rows down: what the memo holds must not depend on which filter asked
// first.
func (st *execState) selectMemoised(ti int, memo *exec.SelectionMemo, stats *exec.ExecStats) (aborted bool) {
	t := st.tabs[ti]
	var sel *exec.Selection
	for i := range st.preds {
		bp := &st.preds[i]
		if bp.tab != ti {
			continue
		}
		key := exec.SelectionKey{Ref: schema.ColumnRef{Table: t.name, Column: t.sch.Columns[bp.ci].Name}, ID: bp.cp.ID}
		one := memo.Acquire(key)
		if one != nil {
			stats.SelectionsReused++
		} else if one = st.fillSelection(memo, key, bp, t, stats); one == nil {
			return true
		}
		if sel == nil {
			sel = one
			continue
		}
		both := st.getSelection()
		slot, ids := st.getIDs()
		both.IDs = rowset.IntersectSorted(ids, sel.IDs, one.IDs)
		st.keepIDs(slot, both.IDs)
		both.Rows = st.getBitmap(t.numRows)
		both.Rows.Or(sel.Rows)
		both.Rows.And(one.Rows)
		sel = both
	}
	st.sels[ti] = sel
	return false
}

// fillSelection selects the rows predicate bp keeps from the column's key
// dictionary and settles the fill the memo handed this execution, on every
// path out: with the selection — freshly allocated, the memo's from here on
// — or, interrupted (nil is returned) or panicking in the caller's
// predicate, with nothing, so that no other execution waits on or reads a
// fill that did not finish.
func (st *execState) fillSelection(memo *exec.SelectionMemo, key exec.SelectionKey, bp *boundPred, t *table, stats *exec.ExecStats) (sel *exec.Selection) {
	defer func() { memo.Settle(key, sel) }()
	rows := rowset.New(t.numRows)
	aborted := t.cols[bp.ci].Select(&bp.cp, rows, &st.interrupt)
	n := rows.Popcount()
	stats.RowsScanned += n
	if aborted {
		return nil
	}
	return &exec.Selection{IDs: rows.AppendTo(make([]int32, 0, n)), Rows: rows}
}

// newPredCheck builds the per-row verification state of one pushed-down
// predicate: a verdict per value id when the column has fewer ids (NULL's
// counted) than there are rows to check, the predicate closure otherwise.
func newPredCheck(cp *exec.ColumnPredicate, col *column, toCheck int, st *execState) predCheck {
	c := predCheck{pred: cp.Pred, col: col}
	if len(col.Vals)+1 < toCheck {
		c.verdict = st.getVerdict(len(col.Vals) + 1)
		for id, v := range col.Vals {
			c.verdict[id] = cp.Pred(v)
		}
		c.verdict[len(col.Vals)] = len(col.NullRows()) > 0 && cp.Pred(value.NullValue)
	}
	return c
}

// verifyRow re-applies every pushed-down predicate of the current
// selectRows call (st.checks) to one row. A variant row is checked on its
// own value: a predicate need not agree across values that share an id.
func (st *execState) verifyRow(row int32, stats *exec.ExecStats) bool {
	stats.RowsScanned++
	for i := range st.checks {
		c := &st.checks[i]
		var pass bool
		if v, variant := c.col.Variant(row); variant {
			pass = c.pred(v)
		} else if c.verdict != nil {
			pass = c.verdict[c.col.RowID[row]]
		} else {
			pass = c.pred(c.col.Value(row))
		}
		if !pass {
			stats.PredicateFiltered++
			return false
		}
	}
	return true
}

// addKeywordHits unions the rows that may match a keyword constant into the
// bitmap, mirroring Value.MatchesKeyword's two comparison paths: the rows of
// the value ids that render as the normalised keyword (a superset of the
// rows that do: candidates are re-checked) and, when the keyword parses as
// a number, the rows whose numeric view equals it.
func addKeywordHits(c *column, kw string, bm *rowset.Bitmap) {
	kw = value.Normalize(kw)
	if kw == "" {
		return
	}
	for _, id := range c.IDsOfKeyword(kw) {
		bm.AddSorted(c.Post.At(id))
	}
	if f, ok := exec.NumericKeyword(kw); ok {
		c.Select(&exec.ColumnPredicate{
			Pred:        func(v value.Value) bool { g, ok := v.Float(); return ok && g == f },
			Bounds:      &exec.NumericBounds{Lo: f, Hi: f, HasLo: true, HasHi: true},
			BoundsExact: true,
		}, bm, nil)
	}
}
