package colexec

// Differential tests of the depth-first join walk. The oracle is the
// materialising join the executor ran before the walk replaced it, kept
// below as test-only code and driven for a single execution the way run
// drove it; the mem reference engine is the second opinion. The walk must
// return the same verdicts, the same rows in the same order — limited or
// not, Distinct or not — and, when it runs to exhaustion, the same join
// counters.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"prism/internal/difftest"
	"prism/internal/exec"
	"prism/internal/filter"
	"prism/internal/graphx"
	"prism/internal/mem"
	"prism/internal/schema"
	"prism/internal/value"
)

// runMaterialised executes the plan through the materialising join: the
// same bind, push-down and level plan as run, then the column-at-a-time
// join, then the row loop run used to have. It returns every joined row the
// tuple predicate accepts, before Distinct and Limit.
func (e *Executor) runMaterialised(p exec.Plan, opts exec.ExecOptions) ([]value.Tuple, exec.ExecStats, error) {
	st := e.getState()
	defer e.putState(st)
	var stats runStats
	if err := e.bind(st, p, opts); err != nil {
		return nil, stats.ExecStats, err
	}
	st.interrupt.Reset(opts.Interrupt)
	if e.pushDown(st, opts.Selections, &stats.ExecStats) {
		return nil, stats.ExecStats, exec.ErrInterrupted
	}
	if err := e.planLevels(st, p); err != nil {
		return nil, stats.ExecStats, err
	}
	cur, err := st.joinPipeline(opts, &stats)
	if err != nil {
		return nil, stats.ExecStats, err
	}
	proj := st.scratch[:len(st.gathers)]
	var rows []value.Tuple
	for r := range cur[0] {
		for gi := range st.gathers {
			g := &st.gathers[gi]
			proj[gi] = g.col.Value(cur[g.slot][r])
		}
		if opts.TuplePredicate != nil && !opts.TuplePredicate(proj) {
			continue
		}
		rows = append(rows, proj.Clone())
	}
	return rows, stats.ExecStats, nil
}

// joinPipeline materialises the planned join (planLevels) column-at-a-time:
// level d probes the prebuilt join index of its table with the keys of the
// rows joined so far and keeps the postings its selection admits. It
// returns one row-id vector per level (a table's level is st.slotOf), all
// of one length: the joined rows, in the order the walk visits them.
func (st *execState) joinPipeline(opts exec.ExecOptions, stats *runStats) ([][]int32, error) {
	lv := st.levels
	cur := st.filterResiduals([][]int32{lv[0].list}, &lv[0])
	for d := 1; d < len(lv); d++ {
		l := &lv[d]
		next := make([][]int32, d+1)
		outRows := 0
		for r, probe := range cur[l.probeLvl] {
			if st.interrupt.Hit() {
				return nil, exec.ErrInterrupted
			}
			for _, rid := range joinRows(l.buildCol, l.probeCol, probe) {
				if l.bm != nil && !l.bm.Contains(rid) {
					continue
				}
				for s := 0; s < d; s++ {
					next[s] = append(next[s], cur[s][r])
				}
				next[d] = append(next[d], rid)
				outRows++
				if opts.MaxIntermediate > 0 && outRows > opts.MaxIntermediate {
					stats.AbortedTooLarge = true
					return nil, fmt.Errorf("colexec: intermediate result exceeded %d tuples", opts.MaxIntermediate)
				}
			}
		}
		stats.JoinsExecuted++
		stats.IntermediateRows += outRows
		cur = st.filterResiduals(next, l)
	}
	return cur, nil
}

// filterResiduals keeps the pipeline rows that satisfy the residual edges
// level l closes — equal, non-null values on both columns — in fresh
// vectors (the current ones may alias a read-only selection).
func (st *execState) filterResiduals(cur [][]int32, l *joinLevel) [][]int32 {
	for i := l.resLo; i < l.resHi; i++ {
		re := &st.residuals[i]
		lvec, rvec := cur[st.slotOf[re.lt]], cur[st.slotOf[re.rt]]
		next := make([][]int32, len(cur))
		for r := range lvec {
			lv := re.lc.Value(lvec[r])
			if lv.IsNull() || !lv.Equal(re.rc.Value(rvec[r])) {
				continue
			}
			for s := range cur {
				next[s] = append(next[s], cur[s][r])
			}
		}
		cur = next
	}
	return cur
}

// firstRows applies Distinct and Limit to the oracle's rows the way
// ExecuteWith does: duplicates dropped in arrival order, then the first k
// (k <= 0 keeps all).
func firstRows(rows []value.Tuple, distinct bool, k int) []value.Tuple {
	var out []value.Tuple
	seen := make(map[string]bool)
	for _, row := range rows {
		if distinct && seen[row.Key()] {
			continue
		}
		seen[row.Key()] = true
		out = append(out, row)
		if k > 0 && len(out) == k {
			break
		}
	}
	return out
}

func sameRows(t *testing.T, label string, got, want []value.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("%s: row %d is %v, want %v", label, i, got[i], want[i])
		}
	}
}

// checkExists requires the walk's Exists verdict to equal mem's and want —
// whether the materialised run, whose stats are whole, has a row — and its
// stats to be a walk's: nothing materialised, no more partial tuples than
// the whole join has.
func checkExists(t *testing.T, label string, col *Executor, db *mem.Database, plan exec.Plan, opts exec.ExecOptions, want bool, whole exec.ExecStats) bool {
	t.Helper()
	got, stats, err := col.Exists(plan, opts)
	if err != nil {
		t.Fatalf("%s: Exists: %v", label, err)
	}
	if got != want {
		t.Fatalf("%s: Exists = %v, the materialised run says %v", label, got, want)
	}
	if stats.PeakIntermediateBytes != 0 {
		t.Fatalf("%s: Exists reports %d materialised bytes, the walk builds nothing", label, stats.PeakIntermediateBytes)
	}
	if stats.IntermediateRows > whole.IntermediateRows {
		t.Fatalf("%s: Exists formed %d partial tuples, the whole join has %d", label, stats.IntermediateRows, whole.IntermediateRows)
	}
	if ref, _, err := db.Exists(plan, opts); err != nil || ref != got {
		t.Fatalf("%s: Exists = %v, mem says %v (err %v)", label, got, ref, err)
	}
	return got
}

// checkAgainstOracle compares every single-execution entry point of the
// walk with the materialised run of the same plan and options. mkOpts
// builds the options afresh for each execution, so a stateful tuple
// predicate starts over every time. It reports the verdict.
func checkAgainstOracle(t *testing.T, label string, col *Executor, db *mem.Database, plan exec.Plan, mkOpts func() exec.ExecOptions) bool {
	t.Helper()
	all, oStats, err := col.runMaterialised(plan, mkOpts())
	if err != nil {
		t.Fatalf("%s: materialised run: %v", label, err)
	}

	got := checkExists(t, label, col, db, plan, mkOpts(), len(all) > 0, oStats)

	for _, distinct := range []bool{false, true} {
		p := plan
		p.Distinct = distinct
		res, err := col.ExecuteWith(p, mkOpts())
		if err != nil {
			t.Fatalf("%s distinct=%v: ExecuteWith: %v", label, distinct, err)
		}
		sameRows(t, fmt.Sprintf("%s distinct=%v unlimited", label, distinct), res.Rows, firstRows(all, distinct, 0))
		if res.Stats.IntermediateRows != oStats.IntermediateRows || res.Stats.JoinsExecuted != oStats.JoinsExecuted {
			t.Fatalf("%s distinct=%v: exhausted walk counts %d partial tuples over %d joins, materialised run %d over %d",
				label, distinct, res.Stats.IntermediateRows, res.Stats.JoinsExecuted, oStats.IntermediateRows, oStats.JoinsExecuted)
		}
		if res.Stats.RowsScanned != oStats.RowsScanned || res.Stats.PredicateFiltered != oStats.PredicateFiltered {
			t.Fatalf("%s distinct=%v: selection counters differ: %+v vs %+v", label, distinct, res.Stats, oStats)
		}
		if res.Stats.ResultRows != len(res.Rows) || res.Stats.TerminatedEarly {
			t.Fatalf("%s distinct=%v: unlimited run reports %d result rows, early=%v", label, distinct, res.Stats.ResultRows, res.Stats.TerminatedEarly)
		}
		ref, err := db.ExecuteWith(p, mkOpts())
		if err != nil {
			t.Fatalf("%s distinct=%v: mem: %v", label, distinct, err)
		}
		sameRows(t, fmt.Sprintf("%s distinct=%v vs mem", label, distinct), res.Rows, ref.Rows)

		for _, k := range []int{1, 2, 10} {
			opts := mkOpts()
			opts.Limit = k
			res, err := col.ExecuteWith(p, opts)
			if err != nil {
				t.Fatalf("%s distinct=%v limit=%d: %v", label, distinct, k, err)
			}
			want := firstRows(all, distinct, k)
			sameRows(t, fmt.Sprintf("%s distinct=%v limit=%d", label, distinct, k), res.Rows, want)
			if res.Stats.TerminatedEarly != (len(want) == k) {
				t.Fatalf("%s distinct=%v limit=%d: TerminatedEarly = %v with %d rows", label, distinct, k, res.Stats.TerminatedEarly, len(want))
			}
		}
	}
	return got
}

func buildColumnar(t testing.TB, db *mem.Database) *Executor {
	t.Helper()
	return build(t, db).(*Executor)
}

// TestWalkMatchesMaterialisedJoin is the random sweep: every
// validation-shaped plan of every bundled database under random predicate
// sets — keyword hits, nonsense keywords, numeric bounds, scans, tuple
// predicates.
func TestWalkMatchesMaterialisedJoin(t *testing.T) {
	for name, db := range difftest.Databases(t) {
		col := buildColumnar(t, db)
		rng := rand.New(rand.NewSource(19))
		sat, unsat := 0, 0
		for pi, plan := range difftest.Plans(db.Schema()) {
			for round := 0; round < 4; round++ {
				opts := difftest.RandomPredicates(rng, db, plan)
				label := fmt.Sprintf("%s plan %d %v round %d", name, pi, plan.Tables, round)
				if checkAgainstOracle(t, label, col, db, plan, func() exec.ExecOptions { return opts }) {
					sat++
				} else {
					unsat++
				}
			}
		}
		if sat == 0 || unsat == 0 {
			t.Fatalf("%s: %d satisfied / %d unsatisfied probes — the sweep cannot catch a one-sided bug", name, sat, unsat)
		}
	}
}

// oracleExecutor answers Exists with the walk after checking the verdict
// against the materialised run and mem; everything else is the executor's.
type oracleExecutor struct {
	*Executor
	t          *testing.T
	db         *mem.Database
	sat, unsat int
}

func (o *oracleExecutor) Exists(p exec.Plan, opts exec.ExecOptions) (bool, exec.ExecStats, error) {
	all, whole, err := o.Executor.runMaterialised(p, opts)
	if err != nil {
		o.t.Fatalf("materialised run of %s: %v", p, err)
	}
	if checkExists(o.t, p.String(), o.Executor, o.db, p, opts, len(all) > 0, whole) {
		o.sat++
	} else {
		o.unsat++
	}
	return o.Executor.Exists(p, opts)
}

// TestWalkOnGeneratorPools validates the filters of the workload
// generator's specification pools — the probes a discovery round issues,
// low-resolution rounds included — and checks every one of them.
func TestWalkOnGeneratorPools(t *testing.T) {
	for name, db := range difftest.Databases(t) {
		ex := &oracleExecutor{Executor: buildColumnar(t, db), t: t, db: db}
		g := graphx.New(db.Schema())
		for _, round := range difftest.Rounds(t, db, 1) {
			cands, err := graphx.Enumerate(g, round.Related, graphx.EnumerateOptions{MaxCandidates: 150, RequireUsefulLeaves: true})
			if err != nil {
				t.Fatal(err)
			}
			set, err := filter.DecomposeFor(context.Background(), round.Spec, cands)
			if err != nil {
				t.Fatal(err)
			}
			v := &filter.Validator{DB: ex, Cells: filter.NewCells(round.Spec)}
			for i, f := range set.Filters {
				if i == 120 {
					break
				}
				if _, err := v.Validate(f); err != nil {
					t.Fatalf("%s %s: %v", name, round.Name, err)
				}
			}
		}
		if ex.sat == 0 || ex.unsat == 0 {
			t.Fatalf("%s: %d satisfied / %d unsatisfied probes", name, ex.sat, ex.unsat)
		}
	}
}

// edgeDB is a three-table database built to hit the join's corner cases:
// NULL and dangling join keys on both edges, a third edge that closes the
// cycle A–B–C–A, rows of A whose id equals their v (a self-condition), and
// duplicate projected values.
func edgeDB(t testing.TB) *mem.Database {
	t.Helper()
	sch := schema.New()
	for _, tbl := range []*schema.Table{
		schema.MustTable("A", schema.Column{Name: "id", Type: value.Int}, schema.Column{Name: "k", Type: value.Text}, schema.Column{Name: "v", Type: value.Int}),
		schema.MustTable("B", schema.Column{Name: "k", Type: value.Text}, schema.Column{Name: "m", Type: value.Text}, schema.Column{Name: "w", Type: value.Int}),
		schema.MustTable("C", schema.Column{Name: "m", Type: value.Text}, schema.Column{Name: "a_id", Type: value.Int}, schema.Column{Name: "v", Type: value.Int}),
	} {
		if err := sch.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	db := mem.NewDatabase("edge", sch)
	insert := func(table string, rows ...[]string) {
		for _, r := range rows {
			if err := db.InsertStrings(table, r...); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert("A",
		[]string{"1", "x", "1"}, []string{"2", "x", "20"}, []string{"3", "y", "3"},
		[]string{"4", "", "40"}, // NULL key
		[]string{"5", "dangling", "5"}, []string{"6", "z", "60"}, []string{"7", "y", "70"})
	insert("B",
		[]string{"x", "m1", "10"}, []string{"x", "m2", "11"}, []string{"y", "m1", "12"},
		[]string{"y", "", "13"},        // NULL key towards C
		[]string{"z", "nowhere", "14"}, // dangling towards C
		[]string{"", "m2", "15"},       // NULL key towards A
		[]string{"orphan", "m3", "16"}, []string{"z", "m3", "17"})
	insert("C",
		[]string{"m1", "1", "100"}, []string{"m1", "3", "101"}, []string{"m2", "2", "102"},
		[]string{"m2", "", "103"}, []string{"m3", "6", "104"}, []string{"m3", "1", "105"},
		[]string{"", "7", "106"}, []string{"m4", "4", "107"})
	db.Analyze()
	return db
}

// edgePlans returns the chain A ⋈ B ⋈ C over edgeDB and the same plan with
// a third edge, C.a_id = A.id, that closes the cycle (a residual edge: both
// its tables are placed by the time the walk reaches it).
func edgePlans() (chain, cyclic exec.Plan) {
	chain = exec.Plan{
		Tables:  []string{"A", "B", "C"},
		Joins:   []exec.JoinEdge{{Left: ref("A", "k"), Right: ref("B", "k")}, {Left: ref("B", "m"), Right: ref("C", "m")}},
		Project: []schema.ColumnRef{ref("A", "id"), ref("B", "w"), ref("C", "v")},
	}
	cyclic = chain
	cyclic.Joins = append(append([]exec.JoinEdge(nil), chain.Joins...), exec.JoinEdge{Left: ref("C", "a_id"), Right: ref("A", "id")})
	return chain, cyclic
}

func outOfRange(table, column string) exec.ColumnPredicate {
	return exec.ColumnPredicate{
		Ref:    ref(table, column),
		Pred:   func(v value.Value) bool { f, ok := v.Float(); return ok && f >= 1e9 },
		Bounds: &exec.NumericBounds{Lo: 1e9, HasLo: true},
	}
}

// TestWalkHandBuiltCases runs the corner cases the random sweep cannot be
// relied on to produce.
func TestWalkHandBuiltCases(t *testing.T) {
	db := edgeDB(t)
	col := buildColumnar(t, db)
	chain, cyclic := edgePlans()
	selfCond := exec.Plan{
		Tables:  []string{"A"},
		Joins:   []exec.JoinEdge{{Left: ref("A", "id"), Right: ref("A", "v")}},
		Project: []schema.ColumnRef{ref("A", "id"), ref("A", "k")},
	}
	sharedSource := chain
	sharedSource.Project = []schema.ColumnRef{ref("A", "k"), ref("A", "k"), ref("B", "w")}
	none := func() exec.ExecOptions { return exec.ExecOptions{} }

	cases := []struct {
		name   string
		plan   exec.Plan
		mkOpts func() exec.ExecOptions
		want   bool
	}{
		{"null and dangling keys", chain, none, true},
		{"residual edge closes a cycle", cyclic, none, true},
		{"single table with a self-condition", selfCond, none, true},
		{"two target columns on one source column", sharedSource, none, true},
		{"zone-pruned start table", chain, func() exec.ExecOptions {
			return exec.ExecOptions{ColumnPredicates: []exec.ColumnPredicate{outOfRange("B", "w")}}
		}, false},
		{"zone-pruned start and inner table", chain, func() exec.ExecOptions {
			return exec.ExecOptions{ColumnPredicates: []exec.ColumnPredicate{outOfRange("A", "v"), outOfRange("C", "v")}}
		}, false},
		{"empty selection on an inner table after a scan", chain, func() exec.ExecOptions {
			return exec.ExecOptions{ColumnPredicates: []exec.ColumnPredicate{
				{Ref: ref("A", "v"), Pred: func(value.Value) bool { return false }},
				{Ref: ref("C", "v"), Pred: func(value.Value) bool { return false }},
			}}
		}, false},
		{"inner selections filter the postings", chain, func() exec.ExecOptions {
			return exec.ExecOptions{ColumnPredicates: []exec.ColumnPredicate{
				{Ref: ref("A", "v"), Pred: func(v value.Value) bool { return !v.IsNull() && v.Int() < 50 }},
				{Ref: ref("B", "w"), Pred: func(v value.Value) bool { return !v.IsNull() && v.Int() != 10 }},
				{Ref: ref("C", "v"), Pred: func(v value.Value) bool { return !v.IsNull() && v.Int() != 100 }},
			}}
		}, true},
	}
	for _, n := range []int{1, 3, 100} {
		n := n
		cases = append(cases, struct {
			name   string
			plan   exec.Plan
			mkOpts func() exec.ExecOptions
			want   bool
		}{fmt.Sprintf("tuple predicate rejects the first %d tuples", n), chain, func() exec.ExecOptions {
			seen := 0
			return exec.ExecOptions{TuplePredicate: func(value.Tuple) bool { seen++; return seen > n }}
		}, n < 100})
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if got := checkAgainstOracle(t, tc.name, col, db, tc.plan, tc.mkOpts); got != tc.want {
				t.Fatalf("Exists = %v, want %v", got, tc.want)
			}
		})
	}

	// The cycle really prunes: fewer rows than the chain it closes.
	open, _, _ := col.runMaterialised(chain, exec.ExecOptions{})
	closed, _, _ := col.runMaterialised(cyclic, exec.ExecOptions{})
	if len(closed) == 0 || len(closed) >= len(open) {
		t.Fatalf("cyclic plan returns %d rows, chain %d — the residual edge is not exercised", len(closed), len(open))
	}
}

// fanDB is A(k) ⋈ B(k, m) ⋈ C(m, v) with n rows in A, fan rows of B per
// row of A and one row of C per row of B: every partial tuple extends, so
// the join has n×fan rows and no dead ends.
func fanDB(t testing.TB, n, fan int) (*mem.Database, exec.Plan) {
	t.Helper()
	sch := schema.New()
	for _, tbl := range []*schema.Table{
		schema.MustTable("A", schema.Column{Name: "k", Type: value.Int}),
		schema.MustTable("B", schema.Column{Name: "k", Type: value.Int}, schema.Column{Name: "m", Type: value.Int}),
		schema.MustTable("C", schema.Column{Name: "m", Type: value.Int}, schema.Column{Name: "v", Type: value.Int}),
	} {
		if err := sch.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	db := mem.NewDatabase("fan", sch)
	for a := 0; a < n; a++ {
		rows := []value.Tuple{{value.NewInt(int64(a))}}
		if err := db.BulkInsert("A", rows); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < fan; f++ {
			m := int64(a*fan + f)
			if err := db.Insert("B", value.Tuple{value.NewInt(int64(a)), value.NewInt(m)}); err != nil {
				t.Fatal(err)
			}
			if err := db.Insert("C", value.Tuple{value.NewInt(m), value.NewInt(m % 7)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.Analyze()
	return db, exec.Plan{
		Tables:  []string{"A", "B", "C"},
		Joins:   []exec.JoinEdge{{Left: ref("B", "k"), Right: ref("A", "k")}, {Left: ref("C", "m"), Right: ref("B", "m")}},
		Project: []schema.ColumnRef{ref("A", "k"), ref("C", "v")},
	}
}

// TestWalkInterruptInsideJoin fires the interrupt on its n-th poll. No
// predicate is pushed down, so every poll comes from the walk, and the
// partial stats show it stopped below the first join, mid-enumeration.
func TestWalkInterruptInsideJoin(t *testing.T) {
	db, plan := fanDB(t, 2*exec.InterruptEvery, 1)
	col := buildColumnar(t, db)
	full, err := col.ExecuteWith(plan, exec.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3, 5} {
		polls := 0
		opts := exec.ExecOptions{
			TuplePredicate: func(value.Tuple) bool { return false },
			Interrupt:      func() bool { polls++; return polls == n },
		}
		res, err := col.ExecuteWith(plan, opts)
		if !errors.Is(err, exec.ErrInterrupted) {
			t.Fatalf("poll %d: err = %v, want ErrInterrupted", n, err)
		}
		if polls != n {
			t.Fatalf("poll %d: the walk went on for %d polls", n, polls)
		}
		if res == nil || res.Stats.JoinsExecuted < 2 {
			t.Fatalf("poll %d: interrupted at depth %+v, want the partial stats of a walk at depth >= 2", n, res)
		}
		if res.Stats.IntermediateRows == 0 || res.Stats.IntermediateRows >= full.Stats.IntermediateRows {
			t.Fatalf("poll %d: %d partial tuples formed, the whole join has %d", n, res.Stats.IntermediateRows, full.Stats.IntermediateRows)
		}
		polls = 0
		if _, stats, err := col.Exists(plan, opts); !errors.Is(err, exec.ErrInterrupted) || stats.IntermediateRows == 0 {
			t.Fatalf("poll %d: Exists err = %v with stats %+v", n, err, stats)
		}
	}
}

// TestWalkMaxIntermediate: a probe with no answer walks the whole join and
// so aborts exactly when the materialised run does, with the same error; a
// probe that has an answer finds it before any level outgrows the bound.
func TestWalkMaxIntermediate(t *testing.T) {
	db, plan := fanDB(t, 40, 3)
	col := buildColumnar(t, db)
	never := func(value.Tuple) bool { return false }
	aborted := 0
	for _, limit := range []int{1, 39, 40, 119, 120, 1 << 20} {
		opts := exec.ExecOptions{MaxIntermediate: limit, TuplePredicate: never}
		_, _, wantErr := col.runMaterialised(plan, opts)
		ok, stats, err := col.Exists(plan, opts)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("limit %d: empty-answer walk err %v, materialised run %v", limit, err, wantErr)
		}
		if ok || stats.AbortedTooLarge != (err != nil) {
			t.Fatalf("limit %d: ok=%v aborted=%v err=%v", limit, ok, stats.AbortedTooLarge, err)
		}
		if err != nil {
			aborted++
		}
		ok, stats, err = col.Exists(plan, exec.ExecOptions{MaxIntermediate: limit})
		if err != nil || !ok || stats.AbortedTooLarge {
			t.Fatalf("limit %d: satisfiable probe: ok=%v err=%v stats=%+v", limit, ok, err, stats)
		}
	}
	if aborted == 0 || aborted == 6 {
		t.Fatalf("%d of 6 bounds aborted — the sweep does not straddle the join size", aborted)
	}
}
