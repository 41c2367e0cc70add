package mem

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"prism/internal/exec"
	"prism/internal/schema"
	"prism/internal/sentinel"
	"prism/internal/value"
)

// Database implements exec.Executor (the row-at-a-time reference engine)
// and exec.Source (the substrate other executors are built from).
var (
	_ exec.Executor = (*Database)(nil)
	_ exec.Source   = (*Database)(nil)
)

// SampleRows implements exec.Executor: the first limit rows of the table in
// storage order (limit <= 0 returns all rows), as fresh tuples that callers
// may mutate freely.
func (db *Database) SampleRows(table string, limit int) ([]value.Tuple, error) {
	t, ok := db.table(table)
	if !ok {
		return nil, fmt.Errorf("%w %q (mem)", sentinel.ErrUnknownTable, table)
	}
	n := t.n
	if limit > 0 && limit < n {
		n = limit
	}
	return t.tuples(n), nil
}

// Execute runs the plan and returns all matching projected tuples.
func (db *Database) Execute(p exec.Plan) (*exec.Result, error) {
	return db.ExecuteWith(p, exec.ExecOptions{})
}

// ExecuteWith runs the plan under the given options. It is the reference
// the columnar executor is checked against, written as three stages that
// read on their own: scan the plan's tables through the pushed-down
// predicates, hash-join them along the plan's edges, project.
func (db *Database) ExecuteWith(p exec.Plan, opts exec.ExecOptions) (*exec.Result, error) {
	if err := p.Validate(db.sch); err != nil {
		return nil, err
	}
	o := &oracle{db: db, p: p, opts: opts, interrupt: exec.NewInterruptChecker(opts.Interrupt)}
	res, err := o.run()
	if errors.Is(err, exec.ErrInterrupted) || o.stats.AbortedTooLarge {
		// A run cut short answers the stats gathered so far.
		return &exec.Result{Columns: p.Project, Stats: o.stats}, err
	}
	return res, err
}

// oracle is the state of one ExecuteWith run.
type oracle struct {
	db        *Database
	p         exec.Plan
	opts      exec.ExecOptions
	interrupt *exec.InterruptChecker
	stats     exec.ExecStats
}

func (o *oracle) run() (*exec.Result, error) {
	base, err := o.scan()
	if err != nil {
		return nil, err
	}
	im, err := o.join(base)
	if err != nil {
		return nil, err
	}
	return o.project(im)
}

// scan reads every plan table once, its cells off the key dictionaries once
// the database is frozen (table.tuples), keeping the rows that pass the
// predicates pushed down to that table. Rows are keyed by lower-cased name.
func (o *oracle) scan() (map[string][]value.Tuple, error) {
	predsByTable := make(map[string][]exec.ColumnPredicate)
	for _, cp := range o.opts.ColumnPredicates {
		key := strings.ToLower(cp.Ref.Table)
		predsByTable[key] = append(predsByTable[key], cp)
	}
	base := make(map[string][]value.Tuple, len(o.p.Tables))
	for _, tname := range o.p.Tables {
		t, _ := o.db.table(tname)
		key := strings.ToLower(tname)
		rows := make([]value.Tuple, 0, t.n)
	row:
		for _, row := range t.tuples(t.n) {
			if o.interrupt.Hit() {
				return nil, exec.ErrInterrupted
			}
			o.stats.RowsScanned++
			for _, cp := range predsByTable[key] {
				ci := t.schema.ColumnIndex(cp.Ref.Column)
				if ci < 0 {
					return nil, fmt.Errorf("mem: predicate column %s not in table %s", cp.Ref, tname)
				}
				if !cp.Pred(row[ci]) {
					o.stats.PredicateFiltered++
					continue row
				}
			}
			rows = append(rows, row)
		}
		base[key] = rows
	}
	return base, nil
}

// join starts from the smallest scanned table (a greedy heuristic that keeps
// intermediates small for the tree-shaped candidate queries Prism
// generates), then adds one table per plan edge that reaches it, in
// declaration order. An edge between two joined tables is a residual
// filter; a single-table plan's self-conditions are applied at the end.
func (o *oracle) join(base map[string][]value.Tuple) (*intermediate, error) {
	start := exec.StartTable(o.p, func(table string) int {
		return len(base[strings.ToLower(table)])
	})
	im := &intermediate{offsets: map[string]int{}, schemas: map[string]*schema.Table{}}
	t, _ := o.db.table(start)
	im.add(start, t.schema, base[strings.ToLower(start)])

	remaining := append([]exec.JoinEdge(nil), o.p.Joins...)
	for len(im.offsets) < len(o.p.Tables) {
		i := slices.IndexFunc(remaining, func(e exec.JoinEdge) bool {
			return im.has(e.Left.Table) != im.has(e.Right.Table)
		})
		if i < 0 {
			return nil, errors.New("mem: plan join graph is not connected")
		}
		edge := remaining[i]
		remaining = slices.Delete(remaining, i, i+1)
		if err := o.hashJoin(im, edge, base); err != nil {
			return nil, err
		}
		var err error
		if remaining, err = im.residual(remaining); err != nil {
			return nil, err
		}
	}
	_, err := im.residual(remaining)
	return im, err
}

// hashJoin hashes the new side of edge on its join column and probes the
// table with every intermediate row, appending the new table's columns.
func (o *oracle) hashJoin(im *intermediate, edge exec.JoinEdge, base map[string][]value.Tuple) error {
	joinedRef, newRef := edge.Left, edge.Right
	if !im.has(edge.Left.Table) {
		joinedRef, newRef = edge.Right, edge.Left
	}
	newTable, _ := o.db.table(newRef.Table)
	nci := newTable.schema.ColumnIndex(newRef.Column)
	if nci < 0 {
		return fmt.Errorf("mem: unknown join column %s", newRef)
	}
	newRows := base[strings.ToLower(newRef.Table)]
	hash := make(map[string][]value.Tuple, len(newRows))
	for _, row := range newRows {
		if row[nci].IsNull() {
			continue
		}
		k := row[nci].Key()
		hash[k] = append(hash[k], row)
	}
	off, err := im.columnOffset(joinedRef)
	if err != nil {
		return err
	}

	var out []value.Tuple
	for _, left := range im.rows {
		if o.interrupt.Hit() {
			return exec.ErrInterrupted
		}
		if left[off].IsNull() {
			continue
		}
		for _, right := range hash[left[off].Key()] {
			out = append(out, append(append(make(value.Tuple, 0, len(left)+len(right)), left...), right...))
			if o.opts.MaxIntermediate > 0 && len(out) > o.opts.MaxIntermediate {
				o.stats.AbortedTooLarge = true
				return fmt.Errorf("mem: intermediate result exceeded %d tuples", o.opts.MaxIntermediate)
			}
		}
	}
	im.add(newRef.Table, newTable.schema, out)
	o.stats.JoinsExecuted++
	o.stats.IntermediateRows += len(out)
	return nil
}

// project reads the plan's output columns off every joined row, then applies
// the tuple predicate, DISTINCT and the row limit, in that order.
func (o *oracle) project(im *intermediate) (*exec.Result, error) {
	offsets := make([]int, len(o.p.Project))
	for i, ref := range o.p.Project {
		off, err := im.columnOffset(ref)
		if err != nil {
			return nil, err
		}
		offsets[i] = off
	}
	res := &exec.Result{Columns: append([]schema.ColumnRef(nil), o.p.Project...)}
	// DISTINCT keeps the first row of each value.Tuple.Key, the reference
	// the columnar engine's dedup on value ids is checked against.
	var dedup *tupleDeduper
	if o.p.Distinct {
		dedup = newTupleDeduper()
	}
	for _, row := range im.rows {
		if o.interrupt.Hit() {
			return nil, exec.ErrInterrupted
		}
		proj := make(value.Tuple, len(offsets))
		for i, off := range offsets {
			proj[i] = row[off]
		}
		if o.opts.TuplePredicate != nil && !o.opts.TuplePredicate(proj) {
			continue
		}
		if o.p.Distinct && dedup.seen(proj) {
			continue
		}
		res.Rows = append(res.Rows, proj)
		if o.opts.Limit > 0 && len(res.Rows) >= o.opts.Limit {
			o.stats.TerminatedEarly = true
			break
		}
	}
	o.stats.ResultRows = len(res.Rows)
	res.Stats = o.stats
	return res, nil
}

// intermediate is a working relation during join execution: a set of tuples
// whose columns are identified by (table, columnIndex) pairs.
type intermediate struct {
	// offsets maps lower(table) -> offset of that table's first column in
	// rows; its keys are the tables joined so far.
	offsets map[string]int
	// schemas maps lower(table) -> the table schema, to locate columns.
	schemas map[string]*schema.Table
	rows    []value.Tuple
	width   int
}

// add appends a table's columns to the intermediate, whose rows become rows.
func (im *intermediate) add(table string, sch *schema.Table, rows []value.Tuple) {
	key := strings.ToLower(table)
	im.offsets[key] = im.width
	im.schemas[key] = sch
	im.width += sch.Arity()
	im.rows = rows
}

// has reports whether the table is joined.
func (im *intermediate) has(table string) bool {
	_, ok := im.offsets[strings.ToLower(table)]
	return ok
}

func (im *intermediate) columnOffset(ref schema.ColumnRef) (int, error) {
	key := strings.ToLower(ref.Table)
	base, ok := im.offsets[key]
	if !ok {
		return 0, fmt.Errorf("mem: table %q not part of intermediate", ref.Table)
	}
	ci := im.schemas[key].ColumnIndex(ref.Column)
	if ci < 0 {
		return 0, fmt.Errorf("mem: unknown column %q in table %q", ref.Column, ref.Table)
	}
	return base + ci, nil
}

// residual keeps the rows on which every edge between two joined tables
// holds (non-NULL and equal), and returns the edges not yet applicable.
func (im *intermediate) residual(edges []exec.JoinEdge) ([]exec.JoinEdge, error) {
	kept := edges[:0]
	for _, e := range edges {
		if !im.has(e.Left.Table) || !im.has(e.Right.Table) {
			kept = append(kept, e)
			continue
		}
		lo, err := im.columnOffset(e.Left)
		if err != nil {
			return nil, err
		}
		ro, err := im.columnOffset(e.Right)
		if err != nil {
			return nil, err
		}
		filtered := im.rows[:0]
		for _, row := range im.rows {
			if !row[lo].IsNull() && row[lo].Equal(row[ro]) {
				filtered = append(filtered, row)
			}
		}
		im.rows = filtered
	}
	return kept, nil
}

// ExistsBatch implements exec.Executor.
//
// Deprecated: ROADMAP item 0 removes it together with
// timedExecutor.ExistsBatch.
func (db *Database) ExistsBatch(p exec.Plan, sets []exec.PredicateSet, opts exec.ExecOptions) ([]exec.Verdict, exec.ExecStats, error) {
	return exec.SequentialExistsBatch(db, p, sets, opts)
}

// Exists reports whether the plan produces at least one tuple satisfying
// the options' predicates, terminating as early as possible. It returns the
// execution stats as the validation cost.
func (db *Database) Exists(p exec.Plan, opts exec.ExecOptions) (bool, exec.ExecStats, error) {
	opts.Limit = 1
	res, err := db.ExecuteWith(p, opts)
	if err != nil {
		if res != nil {
			return false, res.Stats, err
		}
		return false, exec.ExecStats{}, err
	}
	return res.NumRows() > 0, res.Stats, nil
}
