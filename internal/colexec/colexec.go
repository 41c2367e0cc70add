// Package colexec is Prism's columnar executor: the second exec.Executor
// implementation, built for the validation phase of the interactive loop
// (§2.3), where thousands of small Project-Join probes run against one
// read-only database per discovery round.
//
// At build time it converts the source into column-oriented storage and
// precomputes, per column:
//
//   - a join index (canonical value key -> ascending row ids), so hash
//     joins probe a prebuilt table instead of re-hashing the inner relation
//     on every execution, plus the per-row canonical keys themselves, so
//     probing never re-renders a key;
//   - a keyword index (split into a text map and a numeric map), so
//     equality-shaped pushed-down predicates select matching rows by point
//     lookup instead of scanning the column;
//   - a zone map (numeric min/max view plus null/row counts), so
//     range-shaped predicates whose interval cover
//     (exec.ColumnPredicate.Bounds) falls outside the column's value range
//     skip the scan without touching a row;
//   - a dictionary for low-cardinality columns (distinct stored values and
//     one code per row), so scan-shaped predicates are evaluated once per
//     distinct value instead of once per row.
//
// Execution is late-materialising and column-at-a-time: the intermediate
// join state is one int32 row-id vector per joined table (not one slice
// per intermediate row), selections are rowset bitmaps with ascending id
// vectors, and all per-execution scratch (slot vectors, bitmaps, id
// buffers, the projection tuple) comes from a sync.Pool of execution
// states, so a warm existence-style validation probe runs without
// allocating (guarded by an AllocsPerRun test). Result rows and their
// order are identical to the mem reference executor (both start from the
// smallest filtered table, extend the join by scanning plan edges in
// declaration order, and probe in base-row order), which the
// cross-executor equivalence tests rely on.
package colexec

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync"

	"prism/internal/exec"
	"prism/internal/rowset"
	"prism/internal/schema"
	"prism/internal/value"
)

func init() {
	exec.Register("columnar", New)
}

// dictMaxCardinality bounds the distinct-value count (including NULL) up
// to which a column gets a dictionary. Beyond it, per-distinct predicate
// evaluation stops paying for itself.
const dictMaxCardinality = 256

// zone is the per-column zone map consulted before any row is touched.
type zone struct {
	// minF/maxF are the extrema of the numeric views; valid only when
	// numeric is set.
	minF, maxF float64
	// numeric reports that every non-null value has a numeric view
	// (Value.Float) and none is NaN — the precondition for pruning against
	// a predicate's numeric interval cover (see the soundness argument on
	// exec.ColumnPredicate.Bounds: for such columns and Int/Decimal bound
	// constants, Value.Compare coincides with float comparison).
	numeric bool
	rows    int
	nulls   int
}

// blockRows is the granularity of the per-block zone maps: every column
// keeps one blockZone per blockRows stored rows, so range predicates can
// skip provably-empty stretches of a scan without touching them.
const blockRows = 1024

// blockZone is the zone map of one blockRows-sized stretch of a column:
// the extrema of the rows' numeric views. An exact-bounds predicate
// (predCheck.exact) passes only rows with a numeric view inside
// [lo, hi], so a block with no numeric rows — or whose extrema miss the
// interval — provably contributes nothing and is skipped whole.
type blockZone struct {
	minF, maxF float64
	// hasNum reports that at least one row in the block has a numeric
	// view; minF/maxF are valid only when set.
	hasNum bool
}

// codeRun is one run of the dictionary's RLE index: rows
// [start, end) all carry code.
type codeRun struct {
	start, end, code int32
}

// dictionary is the low-cardinality encoding of one column: the distinct
// stored values (by strict identity, so predicate evaluation per code is
// exactly predicate evaluation per row) and one bit-packed code per row.
// NULL is a dictionary entry like any other, so Pred(NULL) semantics are
// preserved. Dictionary-encoded columns drop their per-row value and key
// slices entirely — rows are materialised through the dictionary — so a
// 256-way column costs at most one byte per row instead of a boxed value
// plus a key string.
type dictionary struct {
	vals []value.Value
	// keys holds Value.Key() per distinct value ("" for NULL), so join
	// probes on dictionary columns still never render a key.
	keys []string
	// width is the number of bits per packed code: ⌈log2(len(vals))⌉,
	// zero when the column holds a single distinct value.
	width uint
	// bits holds the packed codes, width bits per row, little-endian
	// within each word, padded with one spare word so a straddling read
	// never bounds-checks.
	bits []uint64
	// runs is the RLE index over the codes, present only when the column
	// actually runs (few runs relative to rows): a scan-shaped predicate
	// is then answered once per run instead of once per row.
	runs []codeRun
}

// code unpacks row ri's dictionary code.
func (d *dictionary) code(ri int32) int32 {
	if d.width == 0 {
		return 0
	}
	bit := uint64(ri) * uint64(d.width)
	off := bit & 63
	v := d.bits[bit>>6] >> off
	if off+uint64(d.width) > 64 {
		v |= d.bits[bit>>6+1] << (64 - off)
	}
	return int32(v & (1<<d.width - 1))
}

// column is the columnar storage of one table column plus its indexes.
// For dictionary-encoded columns vals and keys are nil: per-row storage
// is the packed dict codes, and values/keys materialise through the
// value/key accessors.
type column struct {
	vals []value.Value
	// keys holds Value.Key() per row ("" for NULL), precomputed so join
	// probes never render a key on the hot path.
	keys []string
	// join maps Value.Key() -> ascending row ids of non-null rows; probed
	// by hash joins.
	join map[string][]int32
	// kwText / kwNum are the keyword-equality index, split by comparison
	// path exactly mirroring Value.MatchesKeyword: the normalised text
	// rendering, and the numeric view for values that have one. Hits are
	// re-checked with the predicate, so false positives are harmless; a
	// false negative would wrongly prune a mapping and is excluded by
	// construction (see keywordKeys / keywordLookupKeys and their
	// consistency test).
	kwText map[string][]int32
	kwNum  map[float64][]int32
	zone   zone
	// blocks is the per-block zone map, one entry per blockRows rows.
	blocks []blockZone
	dict   *dictionary
}

// value materialises row ri, through the dictionary when the column is
// compressed.
func (c *column) value(ri int32) value.Value {
	if c.vals != nil {
		return c.vals[ri]
	}
	d := c.dict
	return d.vals[d.code(ri)]
}

// key returns row ri's canonical join key ("" for NULL), through the
// dictionary when the column is compressed.
func (c *column) key(ri int32) string {
	if c.keys != nil {
		return c.keys[ri]
	}
	d := c.dict
	return d.keys[d.code(ri)]
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
	// identity is the shared 0..maxRows-1 row-id vector used as the
	// starting slot vector of unfiltered tables. It is read-only; residual
	// filters write into fresh vectors instead of compacting in place.
	identity []int32
	states   sync.Pool // *execState
}

// New builds the columnar executor over a source: column stores, hash and
// keyword indexes, zone maps and dictionaries for every column. Catalog
// queries (statistics, keyword membership) are delegated to the source, so
// they agree exactly with the reference engine's preprocessing.
func New(src exec.Source) (exec.Executor, error) {
	e := &Executor{src: src, byName: make(map[string]*table)}
	maxRows := 0
	for _, ts := range src.Schema().Tables() {
		t := &table{name: ts.Name, sch: ts}
		for _, col := range ts.Columns {
			vals, err := src.ColumnValues(schema.ColumnRef{Table: ts.Name, Column: col.Name})
			if err != nil {
				return nil, fmt.Errorf("colexec: loading %s.%s: %w", ts.Name, col.Name, err)
			}
			t.cols = append(t.cols, buildColumn(vals))
			t.numRows = len(vals)
		}
		e.tables = append(e.tables, t)
		e.byName[strings.ToLower(ts.Name)] = t
		if t.numRows > maxRows {
			maxRows = t.numRows
		}
	}
	e.identity = make([]int32, maxRows)
	for i := range e.identity {
		e.identity[i] = int32(i)
	}
	return e, nil
}

// buildColumn computes the storage, indexes, zone maps and (when the column
// is low-cardinality) dictionary of one column. Dictionary-encoded columns
// are stored compressed: bit-packed codes plus an RLE run index when the
// column runs, with the per-row value and key slices dropped.
func buildColumn(vals []value.Value) *column {
	c := &column{
		vals:   vals,
		keys:   make([]string, len(vals)),
		join:   make(map[string][]int32),
		kwText: make(map[string][]int32),
		kwNum:  make(map[float64][]int32),
		blocks: make([]blockZone, (len(vals)+blockRows-1)/blockRows),
	}
	z := &c.zone
	z.rows = len(vals)
	z.numeric = true
	zSeeded := false

	strict := make(map[string]int32, 64) // strict identity -> dict code
	var codes []int32
	dict := &dictionary{}
	for ri, v := range vals {
		if !v.IsNull() {
			key := v.Key()
			c.keys[ri] = key
			c.join[key] = append(c.join[key], int32(ri))
			norm := value.Normalize(v.String())
			c.kwText[norm] = append(c.kwText[norm], int32(ri))

			f, fok := v.Float()
			if fok && !math.IsNaN(f) {
				if f == 0 {
					f = 0 // fold -0 into +0; MatchesKeyword compares them equal
				}
				c.kwNum[f] = append(c.kwNum[f], int32(ri))
				if !zSeeded {
					z.minF, z.maxF, zSeeded = f, f, true
				} else {
					if f < z.minF {
						z.minF = f
					}
					if f > z.maxF {
						z.maxF = f
					}
				}
				b := &c.blocks[ri/blockRows]
				if !b.hasNum {
					b.minF, b.maxF, b.hasNum = f, f, true
				} else {
					if f < b.minF {
						b.minF = f
					}
					if f > b.maxF {
						b.maxF = f
					}
				}
			} else {
				z.numeric = false
			}
		} else {
			z.nulls++
		}

		if dict != nil {
			sk := strictKey(v)
			code, ok := strict[sk]
			if !ok {
				if len(dict.vals) >= dictMaxCardinality {
					dict, strict, codes = nil, nil, nil
					continue
				}
				code = int32(len(dict.vals))
				strict[sk] = code
				dict.vals = append(dict.vals, v)
			}
			codes = append(codes, code)
		}
	}
	if dict != nil && len(vals) > 0 {
		dict.compress(codes)
		c.dict = dict
		// Per-row storage becomes the packed codes; values and keys
		// materialise through the dictionary from here on.
		c.vals = nil
		c.keys = nil
	}
	return c
}

// compress finalises a dictionary from the raw per-row codes: the
// per-distinct key table, the bit-packed code lanes, and — when the
// column actually runs — the RLE run index.
func (d *dictionary) compress(codes []int32) {
	d.keys = make([]string, len(d.vals))
	for code, v := range d.vals {
		if !v.IsNull() {
			d.keys[code] = v.Key()
		}
	}
	d.width = uint(bits.Len(uint(len(d.vals) - 1)))
	if d.width > 0 {
		d.bits = make([]uint64, (uint64(len(codes))*uint64(d.width)+63)/64+1)
		for ri, code := range codes {
			bit := uint64(ri) * uint64(d.width)
			off := bit & 63
			d.bits[bit>>6] |= uint64(code) << off
			if off+uint64(d.width) > 64 {
				d.bits[bit>>6+1] |= uint64(code) >> (64 - off)
			}
		}
	}
	var runs []codeRun
	for ri := 0; ri < len(codes); {
		end := ri + 1
		for end < len(codes) && codes[end] == codes[ri] {
			end++
		}
		runs = append(runs, codeRun{start: int32(ri), end: int32(end), code: codes[ri]})
		ri = end
	}
	// Keep the run index only when the column genuinely runs; a
	// run-per-row index would cost more to walk than the rows.
	if len(runs)*4 <= len(codes) {
		d.runs = runs
	}
}

// strictKey identifies a stored value by exact kind and payload —
// case-sensitive for text, no cross-kind folding — so that predicate
// evaluation on a dictionary entry is exactly predicate evaluation on
// every row carrying that code.
func strictKey(v value.Value) string {
	switch v.Kind() {
	case value.Null:
		return "\x00"
	case value.Int:
		return "i" + strconv.FormatInt(v.Int(), 10)
	case value.Decimal:
		return "f" + strconv.FormatFloat(v.Decimal(), 'x', -1, 64)
	case value.Text:
		return "t" + v.Text()
	case value.Date:
		return "d" + strconv.FormatInt(v.TimeValue().Unix(), 10)
	case value.Time:
		return "c" + strconv.FormatInt(v.TimeValue().Unix(), 10)
	default:
		return "?"
	}
}

// ExecutorName implements exec.Executor.
func (e *Executor) ExecutorName() string { return "columnar" }

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

// ColumnHasKeyword implements exec.Metadata by delegating to the source's
// inverted index.
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
			row[ci] = c.value(int32(ri))
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

// Exists implements exec.Executor. Unlike ExecuteWith it materialises
// nothing: the projection tuple is pooled scratch and no Result is built,
// which keeps the warm validation probe allocation-free.
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

// selection is the post-push-down row set of one base table: the surviving
// row ids in ascending order plus a bitmap for O(1) membership tests
// during index probes. A nil *selection means "all rows".
type selection struct {
	ids []int32
	bm  *rowset.Bitmap
}

type gather struct {
	slot int
	col  *column
}

// predCheck is the per-predicate verification state of one selectRows
// call; when verdict is non-nil the predicate was pre-evaluated per
// dictionary code, and when exact is set the predicate is answered from
// the value's numeric view with two float comparisons
// (exec.ColumnPredicate.BoundsExact) — no closure call per row. Exact
// checks additionally drive per-block zone-map pruning: a block whose
// numeric extrema miss [lo, hi] is skipped without touching a row.
type predCheck struct {
	pred    func(value.Value) bool
	col     *column
	verdict []bool
	exact   bool
	lo, hi  float64
}

// blockExcluded reports whether the check proves block b of its column
// empty: an exact-bounds check passes only rows whose numeric view lies
// in [lo, hi], so a block with no numeric rows or with extrema outside
// the interval cannot contribute a row.
func (c *predCheck) blockExcluded(b int) bool {
	if !c.exact {
		return false
	}
	z := &c.col.blocks[b]
	return !z.hasNum || z.maxF < c.lo || z.minF > c.hi
}

// execState is the pooled per-execution scratch: bound plan state, slot
// vectors, bitmaps, id buffers and the projection tuple. Nothing in it
// survives an execution; pooling exists so the warm path never allocates.
type execState struct {
	interrupt exec.InterruptChecker

	tabs   []*table
	sels   []*selection
	preds  []boundPred
	joins  []exec.JoinEdge
	slotOf []int
	checks []predCheck

	selArena []selection
	selUsed  int
	bitmaps  []*rowset.Bitmap
	bmUsed   int
	idBufs   [][]int32
	idUsed   int
	vecBufs  [][]int32
	vecUsed  int
	verdicts [][]bool
	vdUsed   int

	cur     [][]int32 // current slot vectors
	next    [][]int32
	gathers []gather
	scratch value.Tuple

	// Batch-only scratch (ExistsBatch): per-set bound predicates, the flat
	// nSets×nTabs verdict-bitmap grid, per-set liveness/satisfaction, and
	// the shared-scan worklists.
	batchPreds []batchPred
	setBMs     []*rowset.Bitmap
	setLive    []bool
	setSat     []bool
	scanSets   []int
	scanRanges [][2]int
	scanHits   []int
	scanActive []bool

	// Masked-join scratch: when masked is set (batch runs only), the join
	// pipeline carries one uint64 per row — bit si set while the row is
	// still compatible with set si's selections — and drops rows whose
	// mask empties, so "mix" rows (combinations of different sets'
	// selections that belong to no single set) never materialise.
	masked   bool
	maskCur  []uint64
	maskNext []uint64
}

func (e *Executor) getState() *execState {
	if st, ok := e.states.Get().(*execState); ok {
		return st
	}
	return &execState{}
}

func (e *Executor) putState(st *execState) {
	// Drop every reference into request-lifetime data (predicate closures
	// over the spec, the context-capturing interrupt function, projected
	// values) so an idle pool pins nothing; the int32/bitmap arenas are
	// kept for reuse.
	st.interrupt.Reset(nil)
	st.tabs = truncate(st.tabs)
	st.sels = truncate(st.sels)
	st.preds = truncate(st.preds)
	st.joins = truncate(st.joins)
	st.checks = truncate(st.checks)
	st.gathers = truncate(st.gathers)
	st.cur = truncate(st.cur)
	st.next = truncate(st.next)
	st.batchPreds = truncate(st.batchPreds)
	st.setBMs = truncate(st.setBMs)
	clear(st.scratch)
	st.slotOf = st.slotOf[:0]
	st.setLive = st.setLive[:0]
	st.setSat = st.setSat[:0]
	st.scanSets = st.scanSets[:0]
	st.scanRanges = st.scanRanges[:0]
	st.scanHits = st.scanHits[:0]
	st.scanActive = st.scanActive[:0]
	st.masked = false
	st.maskCur = st.maskCur[:0]
	st.maskNext = st.maskNext[:0]
	st.selUsed, st.bmUsed, st.idUsed, st.vecUsed, st.vdUsed = 0, 0, 0, 0, 0
	e.states.Put(st)
}

// scratchFootprint reports the bytes of pooled scratch arenas this
// execution state holds — the storage putState keeps for reuse. It is
// recorded as ExecStats.ScratchBytes after each execution so a round
// can account its scratch-pool high-water mark; the walk touches only
// slice headers (no allocation, a handful of iterations).
func (st *execState) scratchFootprint() int {
	n := 0
	for _, bm := range st.bitmaps {
		if bm != nil {
			n += bm.Footprint()
		}
	}
	for _, b := range st.idBufs {
		n += cap(b) * 4
	}
	for _, b := range st.vecBufs {
		n += cap(b) * 4
	}
	for _, v := range st.verdicts {
		n += cap(v)
	}
	n += cap(st.maskCur) * 8
	n += cap(st.maskNext) * 8
	n += cap(st.scratch) * 16 // interface headers of the projection tuple
	return n
}

// truncate zeroes a slice through its capacity and returns it empty, so
// pooled backing arrays keep their storage but not their references.
func truncate[T any](s []T) []T {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

func (st *execState) getSelection() *selection {
	if st.selUsed == len(st.selArena) {
		st.selArena = append(st.selArena, selection{})
	}
	s := &st.selArena[st.selUsed]
	st.selUsed++
	s.ids = nil
	s.bm = nil
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
	return slot, st.idBufs[slot][:0]
}

func (st *execState) keepIDs(slot int, buf []int32) { st.idBufs[slot] = buf }

func (st *execState) getVec() (int, []int32) {
	if st.vecUsed == len(st.vecBufs) {
		st.vecBufs = append(st.vecBufs, nil)
	}
	slot := st.vecUsed
	st.vecUsed++
	return slot, st.vecBufs[slot][:0]
}

func (st *execState) keepVec(slot int, buf []int32) { st.vecBufs[slot] = buf }

func (st *execState) getVerdict(n int) []bool {
	if st.vdUsed == len(st.verdicts) {
		st.verdicts = append(st.verdicts, nil)
	}
	v := st.verdicts[st.vdUsed]
	if cap(v) < n {
		v = make([]bool, n)
		st.verdicts[st.vdUsed] = v
	}
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
	reach := uint64(1) // join-graph reachability from table 0, as a tab-index bitmask
	for _, j := range p.Joins {
		for _, ref := range []schema.ColumnRef{j.Left, j.Right} {
			ti := st.tabIndex(ref.Table)
			if ti < 0 {
				return fmt.Errorf("colexec: plan join %s references table %q not in plan", j, ref.Table)
			}
			if st.tabs[ti].columnIndex(ref.Column) < 0 {
				return fmt.Errorf("colexec: unknown column %q in table %q", ref.Column, ref.Table)
			}
		}
	}
	// Reject disconnected join graphs up front (the reference engine does so
	// in Plan.Validate): a fixpoint over the edge list, O(tables × joins) on
	// a bitmask.
	for changed := true; changed; {
		changed = false
		for _, j := range p.Joins {
			l := uint64(1) << uint(st.tabIndex(j.Left.Table))
			r := uint64(1) << uint(st.tabIndex(j.Right.Table))
			if reach&(l|r) != 0 && reach&(l|r) != l|r {
				reach |= l | r
				changed = true
			}
		}
	}
	if reach != (uint64(1)<<uint(len(st.tabs)))-1 {
		return fmt.Errorf("colexec: plan join graph is not connected")
	}
	st.joins = append(st.joins, p.Joins...)
	for _, ref := range p.Project {
		ti := st.tabIndex(ref.Table)
		if ti < 0 {
			return fmt.Errorf("colexec: plan projects %s from table not in plan", ref)
		}
		if st.tabs[ti].columnIndex(ref.Column) < 0 {
			return fmt.Errorf("colexec: unknown column %q in table %q", ref.Column, ref.Table)
		}
	}
	return nil
}

func (st *execState) tabIndex(name string) int {
	for i, t := range st.tabs {
		if strings.EqualFold(t.name, name) {
			return i
		}
	}
	return -1
}

func (st *execState) columnOf(ref schema.ColumnRef) (tab int, col *column, err error) {
	ti := st.tabIndex(ref.Table)
	if ti < 0 {
		return 0, nil, fmt.Errorf("colexec: unknown table %q", ref.Table)
	}
	ci := st.tabs[ti].columnIndex(ref.Column)
	if ci < 0 {
		return 0, nil, fmt.Errorf("colexec: unknown column %q in table %q", ref.Column, ref.Table)
	}
	return ti, st.tabs[ti].cols[ci], nil
}

func (st *execState) selCount(ti int) int {
	if st.sels[ti] == nil {
		return st.tabs[ti].numRows
	}
	return len(st.sels[ti].ids)
}

// run executes the plan, calling yield with a shared scratch tuple for
// every surviving projected row (in the reference engine's row order)
// until yield returns false. The caller owns result assembly and
// Distinct/Limit bookkeeping around yield.
func (e *Executor) run(st *execState, p exec.Plan, opts exec.ExecOptions, yield func(value.Tuple) bool) (runStats, error) {
	var stats runStats
	if err := e.bind(st, p, opts); err != nil {
		return stats, err
	}
	st.interrupt.Reset(opts.Interrupt)

	// Push predicates down onto base tables.
	for ti := range st.tabs {
		hasPred := false
		for i := range st.preds {
			if st.preds[i].tab == ti {
				hasPred = true
				break
			}
		}
		if !hasPred {
			continue
		}
		if aborted := e.selectRows(st, ti, &stats.ExecStats); aborted {
			stats.hasPartial = true
			return stats, exec.ErrInterrupted
		}
	}

	nRows, err := e.joinPipeline(st, p, opts, &stats)
	if err != nil {
		return stats, err
	}

	if err := st.prepareProjection(p); err != nil {
		return stats, err
	}
	proj := st.scratch[:len(st.gathers)]
	for r := 0; r < nRows; r++ {
		if st.interrupt.Hit() {
			stats.hasPartial = true
			return stats, exec.ErrInterrupted
		}
		for gi := range st.gathers {
			g := &st.gathers[gi]
			proj[gi] = g.col.value(st.cur[g.slot][r])
		}
		if opts.TuplePredicate != nil && !opts.TuplePredicate(proj) {
			continue
		}
		if !yield(proj) {
			break
		}
	}
	return stats, nil
}

// joinPipeline runs the join phase over the already-installed selections:
// starting-table choice, the column-at-a-time index joins, and residual
// edge filters. On return st.cur holds one slot vector per joined table
// (st.slotOf maps table index to slot) with nRows surviving rows. It is
// shared by the single-probe path (run) and the batched path (runBatch),
// which differ only in how selections were built and what happens to the
// surviving rows.
func (e *Executor) joinPipeline(st *execState, p exec.Plan, opts exec.ExecOptions, stats *runStats) (int, error) {
	// Same starting table and edge-scan discipline as the reference
	// engine, over the filtered cardinalities, so both executors emit rows
	// in the same order. Both call exec.StartTable so the tie-break can
	// never silently diverge between backends.
	start := st.tabIndex(exec.StartTable(p, func(tbl string) int {
		return st.selCount(st.tabIndex(tbl))
	}))
	st.slotOf[start] = 0
	st.cur = st.cur[:0]
	if sel := st.sels[start]; sel != nil {
		st.cur = append(st.cur, sel.ids)
	} else {
		st.cur = append(st.cur, e.identity[:st.tabs[start].numRows])
	}
	nRows := len(st.cur[0])
	if st.masked {
		nRows = st.maskStart(start, nRows)
	}

	var joined uint64 = 1 << uint(start)
	joinedCount := 1
	remaining := st.joins

	for joinedCount < len(st.tabs) {
		edgeIdx := -1
		for i, edge := range remaining {
			li := st.tabIndex(edge.Left.Table)
			ri := st.tabIndex(edge.Right.Table)
			if (joined>>uint(li))&1 != (joined>>uint(ri))&1 {
				edgeIdx = i
				break
			}
		}
		if edgeIdx < 0 {
			return 0, fmt.Errorf("colexec: plan join graph is not connected")
		}
		edge := remaining[edgeIdx]
		remaining = append(remaining[:edgeIdx], remaining[edgeIdx+1:]...)

		joinedRef, newRef := edge.Left, edge.Right
		joinedTab, newTab := st.tabIndex(joinedRef.Table), st.tabIndex(newRef.Table)
		if (joined>>uint(joinedTab))&1 == 0 {
			joinedRef, newRef = newRef, joinedRef
			joinedTab, newTab = newTab, joinedTab
		}
		probeCol := st.tabs[joinedTab].cols[st.tabs[joinedTab].columnIndex(joinedRef.Column)]
		buildCol := st.tabs[newTab].cols[st.tabs[newTab].columnIndex(newRef.Column)]
		newSel := st.sels[newTab]

		probeVec := st.cur[st.slotOf[joinedTab]]
		width := len(st.cur)

		// Probe the prebuilt join index of the new table's column into
		// fresh slot vectors; no hash table is built per execution and no
		// per-row tuple is allocated.
		st.next = st.next[:0]
		vecBase := st.vecUsed
		for s := 0; s <= width; s++ {
			_, v := st.getVec()
			st.next = append(st.next, v)
		}
		outRows := 0
		if st.masked {
			st.maskNext = st.maskNext[:0]
		}
		for r := 0; r < nRows; r++ {
			if st.interrupt.Hit() {
				stats.hasPartial = true
				return 0, exec.ErrInterrupted
			}
			k := probeCol.key(probeVec[r])
			if k == "" {
				continue // NULL never joins
			}
			for _, rid := range buildCol.join[k] {
				if newSel != nil && !newSel.bm.Contains(rid) {
					continue
				}
				if st.masked {
					// Drop the combination as it forms unless some set
					// selected both sides: the joined row's mask is the
					// probe row's mask restricted to sets whose selection
					// on the new table admits rid.
					m := st.maskCur[r] & st.rowMask(newTab, rid)
					if m == 0 {
						continue
					}
					st.maskNext = append(st.maskNext, m)
				}
				for s := 0; s < width; s++ {
					st.next[s] = append(st.next[s], st.cur[s][r])
				}
				st.next[width] = append(st.next[width], rid)
				outRows++
				if opts.MaxIntermediate > 0 && outRows > opts.MaxIntermediate {
					stats.AbortedTooLarge = true
					stats.hasPartial = true
					return 0, fmt.Errorf("colexec: intermediate result exceeded %d tuples", opts.MaxIntermediate)
				}
			}
		}
		for s := 0; s <= width; s++ {
			st.keepVec(vecBase+s, st.next[s])
		}
		st.cur = append(st.cur[:0], st.next...)
		if st.masked {
			st.maskCur, st.maskNext = st.maskNext, st.maskCur
		}
		nRows = outRows
		st.slotOf[newTab] = width
		joined |= 1 << uint(newTab)
		joinedCount++
		stats.JoinsExecuted++
		stats.IntermediateRows += outRows
		// Memory high-water mark of this join step: one int32 per slot
		// vector entry (width+1 vectors), plus the uint64 membership
		// masks on the batched path.
		stepBytes := outRows * (width + 1) * 4
		if st.masked {
			stepBytes += outRows * 8
		}
		if stepBytes > stats.PeakIntermediateBytes {
			stats.PeakIntermediateBytes = stepBytes
		}

		// Residual edges with both endpoints joined become filters.
		kept := remaining[:0]
		for _, re := range remaining {
			l, r := st.tabIndex(re.Left.Table), st.tabIndex(re.Right.Table)
			if (joined>>uint(l))&1 == 1 && (joined>>uint(r))&1 == 1 {
				var err error
				nRows, err = st.filterResidual(nRows, re)
				if err != nil {
					return 0, err
				}
			} else {
				kept = append(kept, re)
			}
		}
		remaining = kept
	}

	// Apply any leftover internal join edges (single-table plans with
	// self-conditions).
	for _, re := range remaining {
		var err error
		nRows, err = st.filterResidual(nRows, re)
		if err != nil {
			return 0, err
		}
	}
	return nRows, nil
}

// prepareProjection resolves the projection against the joined slot vectors
// and sizes the pooled scratch tuple; rows are gathered from the column
// stores only now (late materialisation).
func (st *execState) prepareProjection(p exec.Plan) error {
	st.gathers = st.gathers[:0]
	for _, ref := range p.Project {
		ti, col, err := st.columnOf(ref)
		if err != nil {
			return err
		}
		st.gathers = append(st.gathers, gather{slot: st.slotOf[ti], col: col})
	}
	if cap(st.scratch) < len(st.gathers) {
		st.scratch = make(value.Tuple, len(st.gathers))
	}
	return nil
}

// filterResidual keeps intermediate rows whose two referenced columns hold
// equal, non-null values, writing the surviving rows into fresh slot
// vectors (the current ones may alias read-only selections or the shared
// identity vector).
func (st *execState) filterResidual(nRows int, edge exec.JoinEdge) (int, error) {
	lt, lc, err := st.columnOf(edge.Left)
	if err != nil {
		return 0, err
	}
	rt, rc, err := st.columnOf(edge.Right)
	if err != nil {
		return 0, err
	}
	ls, rs := st.slotOf[lt], st.slotOf[rt]
	if ls < 0 || rs < 0 {
		return 0, fmt.Errorf("colexec: residual join %s references unjoined table", edge)
	}
	width := len(st.cur)
	st.next = st.next[:0]
	vecBase := st.vecUsed
	for s := 0; s < width; s++ {
		_, v := st.getVec()
		st.next = append(st.next, v)
	}
	out := 0
	if st.masked {
		st.maskNext = st.maskNext[:0]
	}
	for r := 0; r < nRows; r++ {
		lv := lc.value(st.cur[ls][r])
		if lv.IsNull() || !lv.Equal(rc.value(st.cur[rs][r])) {
			continue
		}
		for s := 0; s < width; s++ {
			st.next[s] = append(st.next[s], st.cur[s][r])
		}
		if st.masked {
			st.maskNext = append(st.maskNext, st.maskCur[r])
		}
		out++
	}
	for s := 0; s < width; s++ {
		st.keepVec(vecBase+s, st.next[s])
	}
	st.cur = append(st.cur[:0], st.next...)
	if st.masked {
		st.maskCur, st.maskNext = st.maskNext, st.maskCur
	}
	return out, nil
}

// selectRows applies table ti's pushed-down predicates and installs the
// surviving row set. It reports whether execution was interrupted.
//
//  1. Zone maps veto whole scans: a predicate whose numeric interval cover
//     lies outside the column's value range — or any indexed/bounded
//     predicate over an all-NULL column — proves the selection empty
//     before any row is touched.
//  2. Keyword-equality predicates seed the candidate set by index point
//     lookups; with several such predicates the candidate set is the
//     intersection of their sorted hit lists.
//  3. Every candidate is verified against every predicate — near-miss
//     index hits are filtered out. On dictionary-encoded columns the
//     predicate is evaluated once per distinct value and candidates are
//     checked against the verdict table by code.
func (e *Executor) selectRows(st *execState, ti int, stats *exec.ExecStats) (aborted bool) {
	t := st.tabs[ti]
	sel := st.getSelection()
	st.sels[ti] = sel
	sel.bm = st.getBitmap(t.numRows)
	idSlot, ids := st.getIDs()

	// Phase 1: zone-map pruning.
	for i := range st.preds {
		bp := &st.preds[i]
		if bp.tab != ti {
			continue
		}
		z := &t.cols[bp.ci].zone
		// Keyword and bounded predicates reject NULL by contract, so an
		// all-NULL column cannot satisfy them.
		rejectsNull := bp.cp.Bounds != nil || len(bp.cp.Keywords) > 0
		if rejectsNull && z.rows == z.nulls {
			stats.ZonesPruned++
			return false
		}
		if b := bp.cp.Bounds; b != nil && z.numeric && z.rows > z.nulls {
			if (b.HasLo && z.maxF < b.Lo) || (b.HasHi && z.minF > b.Hi) {
				stats.ZonesPruned++
				return false
			}
		}
	}

	// Phase 2: seed candidates from the keyword index.
	var candidates []int32
	seeded := false
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
		if !seeded {
			candidates = hitsBM.AppendTo(ids)
			seeded = true
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

	// Phase 3: verify every candidate with every predicate.
	toCheck := t.numRows
	if seeded {
		toCheck = len(candidates)
	}
	st.checks = st.checks[:0]
	for i := range st.preds {
		bp := &st.preds[i]
		if bp.tab != ti {
			continue
		}
		col := t.cols[bp.ci]
		c := newPredCheck(&bp.cp, col, toCheck, st)
		st.checks = append(st.checks, c)
	}

	if seeded {
		// In-place filter: survivors are appended into the same buffer the
		// candidates occupy; the write index never overtakes the read index.
		ids = candidates[:0]
		for _, id := range candidates {
			if st.interrupt.Hit() {
				st.keepIDs(idSlot, ids)
				return true
			}
			if st.verifyRow(id, stats) {
				ids = append(ids, id)
				sel.bm.Add(id)
			}
		}
	} else if rle := st.rleCheck(); rle != nil {
		// RLE fast path: a single dictionary-verdict predicate over a
		// running column is answered once per run. Counters match the
		// row loop exactly — every row is accounted scanned, failing runs
		// are filtered wholesale.
		for _, run := range rle.col.dict.runs {
			if st.interrupt.Hit() {
				st.keepIDs(idSlot, ids)
				return true
			}
			n := int(run.end - run.start)
			stats.RowsScanned += n
			if !rle.verdict[run.code] {
				stats.PredicateFiltered += n
				continue
			}
			for id := run.start; id < run.end; id++ {
				ids = append(ids, id)
				sel.bm.Add(id)
			}
		}
	} else {
		for b0 := 0; b0 < t.numRows; b0 += blockRows {
			if st.blockPruned(b0/blockRows, 0, len(st.checks)) {
				stats.BlocksPruned++
				continue
			}
			end := int32(min(b0+blockRows, t.numRows))
			for id := int32(b0); id < end; id++ {
				if st.interrupt.Hit() {
					st.keepIDs(idSlot, ids)
					return true
				}
				if st.verifyRow(id, stats) {
					ids = append(ids, id)
					sel.bm.Add(id)
				}
			}
		}
	}
	sel.ids = ids
	st.keepIDs(idSlot, ids)
	return false
}

// rleCheck returns the single pending check when the whole selection is
// one dictionary-verdict predicate over a column with an RLE run index —
// the shape the run-at-a-time fast path answers — and nil otherwise.
func (st *execState) rleCheck() *predCheck {
	if len(st.checks) != 1 {
		return nil
	}
	c := &st.checks[0]
	if c.verdict == nil || c.col.dict.runs == nil {
		return nil
	}
	return c
}

// blockPruned reports whether any of st.checks[lo:hi] proves block b
// empty (per-block zone maps; see predCheck.blockExcluded).
func (st *execState) blockPruned(b, lo, hi int) bool {
	for i := lo; i < hi; i++ {
		if st.checks[i].blockExcluded(b) {
			return true
		}
	}
	return false
}

// newPredCheck builds the per-row verification state of one pushed-down
// predicate: a dictionary verdict table when the column's dictionary is
// smaller than the number of rows to check, the closure-free float fast
// path when the predicate's bounds are exact, the predicate closure
// otherwise.
func newPredCheck(cp *exec.ColumnPredicate, col *column, toCheck int, st *execState) predCheck {
	c := predCheck{pred: cp.Pred, col: col}
	if d := col.dict; d != nil && len(d.vals) < toCheck {
		c.verdict = st.getVerdict(len(d.vals))
		for code, dv := range d.vals {
			c.verdict[code] = cp.Pred(dv)
		}
		return c
	}
	if cp.BoundsExact && cp.Bounds != nil && cp.Bounds.HasLo && cp.Bounds.HasHi {
		c.exact = true
		c.lo, c.hi = cp.Bounds.Lo, cp.Bounds.Hi
	}
	return c
}

// verifyRow re-applies every pushed-down predicate of the current
// selectRows call to one row.
func (st *execState) verifyRow(id int32, stats *exec.ExecStats) bool {
	stats.RowsScanned++
	return st.checkRange(id, 0, len(st.checks), stats)
}

// checkRange applies the checks in st.checks[lo:hi] to one row. The batched
// path packs several predicate sets' checks into st.checks and addresses
// each set by range, so one shared row scan answers all of them.
func (st *execState) checkRange(id int32, lo, hi int, stats *exec.ExecStats) bool {
	for i := lo; i < hi; i++ {
		c := &st.checks[i]
		var pass bool
		if c.verdict != nil {
			pass = c.verdict[c.col.dict.code(id)]
		} else if c.exact {
			f, ok := c.col.value(id).Float()
			pass = ok && f >= c.lo && f <= c.hi
		} else {
			pass = c.pred(c.col.value(id))
		}
		if !pass {
			stats.PredicateFiltered++
			return false
		}
	}
	return true
}

// addKeywordHits unions the posting lists matching a keyword constant into
// the bitmap: the normalised text rendering's list and, when the keyword
// parses as a number, the numeric view's list — mirroring
// Value.MatchesKeyword's two comparison paths.
func addKeywordHits(c *column, kw string, bm *rowset.Bitmap) {
	kw = strings.TrimSpace(kw)
	if kw == "" {
		return
	}
	if post := c.kwText[strings.ToLower(kw)]; len(post) > 0 {
		bm.AddSorted(post)
	}
	if f, ok := parseNumericKeyword(kw); ok {
		if post := c.kwNum[f]; len(post) > 0 {
			bm.AddSorted(post)
		}
	}
}

// parseNumericKeyword parses a keyword as a float like MatchesKeyword
// does, with a cheap shape pre-check so clearly non-numeric keywords skip
// strconv.ParseFloat (whose error path allocates).
func parseNumericKeyword(kw string) (float64, bool) {
	if kw == "" {
		return 0, false
	}
	switch c := kw[0]; {
	case c >= '0' && c <= '9', c == '+', c == '-', c == '.':
	default:
		// ParseFloat also accepts the spelled-out specials.
		if !strings.EqualFold(kw, "inf") && !strings.EqualFold(kw, "infinity") && !strings.EqualFold(kw, "nan") {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(kw, 64)
	if err != nil {
		return 0, false
	}
	if math.IsNaN(f) {
		// NaN never equals a stored numeric view (the text rendering path
		// covers textual "NaN" matches), and NaN map keys are unreachable.
		return 0, false
	}
	if f == 0 {
		f = 0 // fold -0 into +0
	}
	return f, true
}

// ---------------------------------------------------------------------------
// Keyword index keys (specification + consistency-test surface)
// ---------------------------------------------------------------------------

// keywordKeys returns the canonical keys a stored value is indexed under
// for keyword-equality lookups, and keywordLookupKeys the keys probed for a
// keyword constant. They are constructed so that v.MatchesKeyword(kw)
// implies keywordKeys(v) ∩ keywordLookupKeys(kw) ≠ ∅ (no false negatives —
// a miss would wrongly prune a mapping); false positives are harmless
// because index hits are re-checked with the predicate. Values are indexed
// under both their text form and, when numeric, their numeric form, exactly
// mirroring MatchesKeyword's two comparison paths.
//
// The executor stores these keys in two typed maps (kwText holds the text
// keys without the "t:" prefix, kwNum is keyed by the float itself so
// numeric lookups never format a string); these functions remain the
// specification the consistency test checks that construction against.
func keywordKeys(v value.Value) []string {
	keys := []string{"t:" + value.Normalize(v.String())}
	if f, ok := v.Float(); ok && !math.IsNaN(f) {
		keys = append(keys, floatKey(f))
	}
	return keys
}

func keywordLookupKeys(kw string) []string {
	kw = strings.TrimSpace(kw)
	if kw == "" {
		return nil
	}
	keys := []string{"t:" + strings.ToLower(kw)}
	if f, ok := parseNumericKeyword(kw); ok {
		keys = append(keys, floatKey(f))
	}
	return keys
}

func floatKey(f float64) string {
	if f == 0 {
		f = 0 // fold -0 into +0; MatchesKeyword compares them equal
	}
	return "f:" + strconv.FormatFloat(f, 'g', -1, 64)
}
