package mem

import (
	"errors"
	"fmt"
	"strings"

	"prism/internal/exec"
	"prism/internal/schema"
	"prism/internal/value"
)

// Database implements exec.Executor (the row-at-a-time reference engine)
// and exec.Source (the substrate other executors are built from).
var (
	_ exec.Executor = (*Database)(nil)
	_ exec.Source   = (*Database)(nil)
)

// init registers the reference executor. The factory requires the source to
// be a *mem.Database because this executor scans mem's row storage
// directly.
func init() {
	exec.Register("mem", func(src exec.Source) (exec.Executor, error) {
		db, ok := src.(*Database)
		if !ok {
			return nil, fmt.Errorf("mem: executor requires a *mem.Database source, got %T", src)
		}
		return db, nil
	})
}

// ExecutorName implements exec.Executor.
func (db *Database) ExecutorName() string { return "mem" }

// SampleRows implements exec.Executor: the first limit rows of the table in
// storage order (limit <= 0 returns all rows). Rows are copied, so callers
// may mutate them freely.
func (db *Database) SampleRows(table string, limit int) ([]value.Tuple, error) {
	rel, ok := db.Relation(table)
	if !ok {
		return nil, fmt.Errorf("%w %q (mem)", exec.ErrUnknownTable, table)
	}
	n := len(rel.Rows)
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]value.Tuple, n)
	for i := 0; i < n; i++ {
		out[i] = append(value.Tuple(nil), rel.Rows[i]...)
	}
	return out, nil
}

// intermediate is a working relation during join execution: a set of tuples
// whose columns are identified by (table, columnIndex) pairs.
type intermediate struct {
	// cols maps lower(table) -> offset of that table's first column in rows.
	offsets map[string]int
	// schemas maps lower(table) -> the table schema, to locate columns.
	schemas map[string]*schema.Table
	rows    []value.Tuple
	width   int
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

// Execute runs the plan and returns all matching projected tuples.
func (db *Database) Execute(p exec.Plan) (*exec.Result, error) {
	return db.ExecuteWith(p, exec.ExecOptions{})
}

// ExecuteWith runs the plan under the given options.
func (db *Database) ExecuteWith(p exec.Plan, opts exec.ExecOptions) (*exec.Result, error) {
	if err := p.Validate(db.sch); err != nil {
		return nil, err
	}
	var stats exec.ExecStats
	interrupt := exec.NewInterruptChecker(opts.Interrupt)

	// Group pushed-down predicates by table.
	predsByTable := make(map[string][]exec.ColumnPredicate)
	for _, cp := range opts.ColumnPredicates {
		predsByTable[strings.ToLower(cp.Ref.Table)] = append(predsByTable[strings.ToLower(cp.Ref.Table)], cp)
	}

	// Scan base tables with push-down.
	base := make(map[string][]value.Tuple, len(p.Tables))
	for _, tname := range p.Tables {
		rel, _ := db.Relation(tname)
		key := strings.ToLower(tname)
		preds := predsByTable[key]
		rows := make([]value.Tuple, 0, len(rel.Rows))
		for _, row := range rel.Rows {
			if interrupt.Hit() {
				return &exec.Result{Columns: p.Project, Stats: stats}, exec.ErrInterrupted
			}
			stats.RowsScanned++
			keep := true
			for _, cp := range preds {
				ci := rel.Schema.ColumnIndex(cp.Ref.Column)
				if ci < 0 {
					return nil, fmt.Errorf("mem: predicate column %s not in table %s", cp.Ref, tname)
				}
				if !cp.Pred(row[ci]) {
					keep = false
					stats.PredicateFiltered++
					break
				}
			}
			if keep {
				rows = append(rows, row)
			}
		}
		base[key] = rows
	}

	// Start from the smallest filtered base table (a greedy heuristic that
	// keeps intermediates small for the tree-shaped candidate queries Prism
	// generates), then join along plan edges in declaration order.
	startTable := exec.StartTable(p, func(table string) int {
		return len(base[strings.ToLower(table)])
	})

	first := strings.ToLower(startTable)
	im := &intermediate{
		offsets: map[string]int{first: 0},
		schemas: map[string]*schema.Table{},
		rows:    base[first],
	}
	firstRel, _ := db.Relation(startTable)
	im.schemas[first] = firstRel.Schema
	im.width = firstRel.Schema.Arity()

	joined := map[string]bool{first: true}
	remainingJoins := append([]exec.JoinEdge(nil), p.Joins...)

	for len(joined) < len(p.Tables) {
		// Find a join edge connecting the joined set to a new table.
		edgeIdx := -1
		for i, e := range remainingJoins {
			l, r := strings.ToLower(e.Left.Table), strings.ToLower(e.Right.Table)
			if joined[l] != joined[r] {
				edgeIdx = i
				break
			}
		}
		if edgeIdx < 0 {
			return nil, errors.New("mem: plan join graph is not connected")
		}
		edge := remainingJoins[edgeIdx]
		remainingJoins = append(remainingJoins[:edgeIdx], remainingJoins[edgeIdx+1:]...)

		// Determine which side is new.
		joinedRef, newRef := edge.Left, edge.Right
		if !joined[strings.ToLower(edge.Left.Table)] {
			joinedRef, newRef = edge.Right, edge.Left
		}
		newKey := strings.ToLower(newRef.Table)
		newRel, _ := db.Relation(newRef.Table)
		newRows := base[newKey]

		// Hash the new table on its join column.
		nci := newRel.Schema.ColumnIndex(newRef.Column)
		if nci < 0 {
			return nil, fmt.Errorf("mem: unknown join column %s", newRef)
		}
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
			return nil, err
		}

		// Probe.
		var out []value.Tuple
		for _, left := range im.rows {
			if interrupt.Hit() {
				return &exec.Result{Columns: p.Project, Stats: stats}, exec.ErrInterrupted
			}
			v := left[off]
			if v.IsNull() {
				continue
			}
			for _, right := range hash[v.Key()] {
				combined := make(value.Tuple, 0, len(left)+len(right))
				combined = append(combined, left...)
				combined = append(combined, right...)
				out = append(out, combined)
				if opts.MaxIntermediate > 0 && len(out) > opts.MaxIntermediate {
					stats.AbortedTooLarge = true
					return &exec.Result{Columns: p.Project, Stats: stats}, fmt.Errorf("mem: intermediate result exceeded %d tuples", opts.MaxIntermediate)
				}
			}
		}
		// Apply any remaining join edges that became "internal" (both sides
		// already joined after adding the new table) as residual filters.
		im.offsets[newKey] = im.width
		im.schemas[newKey] = newRel.Schema
		im.width += newRel.Schema.Arity()
		im.rows = out
		joined[newKey] = true
		stats.JoinsExecuted++
		stats.IntermediateRows += len(out)

		// Residual edges with both endpoints joined.
		kept := remainingJoins[:0]
		for _, e := range remainingJoins {
			l, r := strings.ToLower(e.Left.Table), strings.ToLower(e.Right.Table)
			if joined[l] && joined[r] {
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
			} else {
				kept = append(kept, e)
			}
		}
		remainingJoins = kept
	}

	// Apply any leftover internal join edges (single-table plans with
	// self-conditions are rejected earlier, so normally none remain).
	for _, e := range remainingJoins {
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

	// Project.
	offsets := make([]int, len(p.Project))
	for i, ref := range p.Project {
		off, err := im.columnOffset(ref)
		if err != nil {
			return nil, err
		}
		offsets[i] = off
	}
	res := &exec.Result{Columns: append([]schema.ColumnRef(nil), p.Project...)}
	// DISTINCT dedup runs through the fingerprint-keyed deduper shared
	// with the columnar engine, so both backends drop the same duplicates.
	var dedup *exec.TupleDeduper
	if p.Distinct {
		dedup = exec.NewTupleDeduper()
	}
	for _, row := range im.rows {
		if interrupt.Hit() {
			return &exec.Result{Columns: p.Project, Stats: stats}, exec.ErrInterrupted
		}
		proj := make(value.Tuple, len(offsets))
		for i, off := range offsets {
			proj[i] = row[off]
		}
		if opts.TuplePredicate != nil && !opts.TuplePredicate(proj) {
			continue
		}
		if p.Distinct && dedup.Seen(proj) {
			continue
		}
		res.Rows = append(res.Rows, proj)
		if opts.Limit > 0 && len(res.Rows) >= opts.Limit {
			stats.TerminatedEarly = true
			break
		}
	}
	stats.ResultRows = len(res.Rows)
	res.Stats = stats
	return res, nil
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
