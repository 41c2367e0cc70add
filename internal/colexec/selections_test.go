package colexec

// Tests of the round's table of selections (exec.ExecOptions.Selections) and
// of the selections the key dictionary answers: neither may change a verdict,
// a row or the order of rows; the table holds every (column, predicate)
// selection once per round whichever caller asks first, never keeps a fill
// that did not finish, and takes every identified predicate, keyword or not.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"prism/internal/difftest"
	"prism/internal/exec"
	"prism/internal/filter"
	"prism/internal/graphx"
	"prism/internal/mem"
	"prism/internal/schema"
	"prism/internal/value"
)

// identified returns the predicates with an identity each, counted on from
// *next: what filter.Validator does for the cells of a specification.
func identified(preds []exec.ColumnPredicate, next *uint32) []exec.ColumnPredicate {
	out := append([]exec.ColumnPredicate(nil), preds...)
	for i := range out {
		*next++
		out[i].ID = *next
	}
	return out
}

// exactRange is the predicate of a pure numeric range cell, as
// filter.Validator hands it down, with identity id.
func exactRange(r schema.ColumnRef, lo, hi float64, id uint32) exec.ColumnPredicate {
	return exec.ColumnPredicate{
		Ref:         r,
		Pred:        func(v value.Value) bool { f, ok := v.Float(); return ok && f >= lo && f <= hi },
		Bounds:      &exec.NumericBounds{Lo: lo, Hi: hi, HasLo: true, HasHi: true},
		BoundsExact: true,
		ID:          id,
	}
}

// TestMemoChangesNoResult is the random sweep: every validation-shaped plan
// of every bundled database under random identified predicate sets, each
// set also put to every other plan (which ignores the predicates on tables
// it lacks, and finds the others in the memo). With the database's memo,
// without one and on the reference engine the verdict, the rows — unlimited
// and limited — and their order are the same.
func TestMemoChangesNoResult(t *testing.T) {
	for name, db := range difftest.Databases(t) {
		col := buildColumnar(t, db)
		rng := rand.New(rand.NewSource(23))
		var memo exec.SelectionMemo
		var ids uint32
		var with, without exec.ExecStats
		plans := difftest.Plans(db.Schema())
		for pi, plan := range plans {
			for round := 0; round < 3; round++ {
				set := difftest.RandomPredicates(rng, db, plan)
				preds := identified(set.ColumnPredicates, &ids)
				for _, target := range []exec.Plan{plan, plans[(pi+1)%len(plans)], plans[(pi+len(plans)/2)%len(plans)]} {
					label := fmt.Sprintf("%s set of plan %d round %d on %v", name, pi, round, target.Tables)
					for _, limit := range []int{0, 2} {
						bare := exec.ExecOptions{ColumnPredicates: preds, TuplePredicate: set.TuplePredicate, Limit: limit}
						memoised := bare
						memoised.Selections = &memo
						want, err := db.ExecuteWith(target, bare)
						if err != nil {
							t.Fatalf("%s: mem: %v", label, err)
						}
						plain, err := col.ExecuteWith(target, bare)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						got, err := col.ExecuteWith(target, memoised)
						if err != nil {
							t.Fatalf("%s: with memo: %v", label, err)
						}
						sameRows(t, label+" without memo vs mem", plain.Rows, want.Rows)
						sameRows(t, label+" with memo vs mem", got.Rows, want.Rows)
						without.Add(plain.Stats)
						with.Add(got.Stats)
					}
					bare := exec.ExecOptions{ColumnPredicates: preds, TuplePredicate: set.TuplePredicate}
					memoised := bare
					memoised.Selections = &memo
					want, _, err := db.Exists(target, bare)
					if err != nil {
						t.Fatalf("%s: mem: %v", label, err)
					}
					if got, _, err := col.Exists(target, bare); err != nil || got != want {
						t.Fatalf("%s: Exists = %v, %v; mem says %v", label, got, err, want)
					}
					got, stats, err := col.Exists(target, memoised)
					if err != nil || got != want {
						t.Fatalf("%s: Exists with memo = %v, %v; mem says %v", label, got, err, want)
					}
					with.Add(stats)
				}
			}
		}
		if with.SelectionsReused == 0 || without.SelectionsReused != 0 {
			t.Fatalf("%s: %d selections reused with the memo, %d without — the sweep does not exercise it",
				name, with.SelectionsReused, without.SelectionsReused)
		}
		if with.RowsScanned >= without.RowsScanned {
			t.Fatalf("%s: %d rows scanned with the memo (one probe more per set), %d without", name, with.RowsScanned, without.RowsScanned)
		}
	}
}

// poolFilters returns, per generated round over db, the specification and
// the first filters of its decomposition: the probes a discovery round
// issues.
func poolFilters(t testing.TB, db *mem.Database) (rounds []difftest.Round, filters [][]*filter.Filter) {
	t.Helper()
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
		fs := set.Filters
		rounds = append(rounds, round)
		filters = append(filters, fs[:min(len(fs), 120)])
	}
	return rounds, filters
}

// TestMemoOnGeneratorPools validates the filters of the workload
// generator's pools through filter.Validator, which owns the memo and
// issues the identities: the verdicts of a validator on the columnar
// executor, of one whose memo is taken away and of one on the reference
// engine are the same, and the memo only ever saves rows.
func TestMemoOnGeneratorPools(t *testing.T) {
	reused := 0
	for name, db := range difftest.Databases(t) {
		col := buildColumnar(t, db)
		var with, without exec.ExecStats
		rounds, filters := poolFilters(t, db)
		for ri, round := range rounds {
			memoised := &filter.Validator{DB: col, Cells: filter.NewCells(round.Spec)}
			plain := &filter.Validator{DB: withoutMemo{col}, Cells: filter.NewCells(round.Spec)}
			reference := &filter.Validator{DB: db, Cells: filter.NewCells(round.Spec)}
			for _, f := range filters[ri] {
				want, err := reference.Validate(f)
				if err != nil {
					t.Fatalf("%s %s %s: mem: %v", name, round.Name, f, err)
				}
				got, err := memoised.Validate(f)
				if err != nil || got.Passed != want.Passed {
					t.Fatalf("%s %s %s: passed = %v, %v; mem says %v", name, round.Name, f, got.Passed, err, want.Passed)
				}
				bare, err := plain.Validate(f)
				if err != nil || bare.Passed != want.Passed {
					t.Fatalf("%s %s %s: without memo passed = %v, %v; mem says %v", name, round.Name, f, bare.Passed, err, want.Passed)
				}
				if got.Cost.RowsScanned > bare.Cost.RowsScanned {
					t.Fatalf("%s %s %s: %d rows scanned with the memo, %d without", name, round.Name, f, got.Cost.RowsScanned, bare.Cost.RowsScanned)
				}
				with.Add(got.Cost)
				without.Add(bare.Cost)
			}
		}
		if without.SelectionsReused != 0 {
			t.Fatalf("%s: %d selections reused without a memo", name, without.SelectionsReused)
		}
		reused += with.SelectionsReused
		t.Logf("%s: %d rows scanned without the memo, %d with it (%d selections reused)",
			name, without.RowsScanned, with.RowsScanned, with.SelectionsReused)
	}
	if reused == 0 {
		t.Fatal("no pool reuses a selection: the test does not exercise the memo")
	}
}

// TestMemoComputesEachKeyOnce shares one memo between eight goroutines. In
// the first half they all issue the same few probes at once: exactly one
// probe per key accounts for selecting it, and every other reads it. In the
// second they split a pool round's filters between them through one
// filter.Validator: every verdict is the reference engine's, the rows
// scanned, summed over the workers, are the rows one worker scans validating
// the same filters alone, and the round table ends with one entry per
// (column, cell) pair, as it does for the one worker.
func TestMemoComputesEachKeyOnce(t *testing.T) {
	const workers = 8
	db, plan := fanDB(t, 3000, 2)
	col := buildColumnar(t, db)
	probes := []exec.ColumnPredicate{
		exactRange(ref("C", "m"), 100, 4000, 1),
		exactRange(ref("C", "m"), 3000, 5000, 2),
		exactRange(ref("B", "m"), 0, 2500, 3),
		{Ref: ref("B", "k"), Pred: func(v value.Value) bool { return v.Int()%3 == 0 }, ID: 4},
	}
	// One worker, a memo of its own: what every key costs to select once
	// (the rows it selects).
	var alone exec.SelectionMemo
	var wantScanned int64
	for _, p := range probes {
		_, stats, err := col.Exists(plan, exec.ExecOptions{ColumnPredicates: []exec.ColumnPredicate{p}, Selections: &alone})
		if err != nil || stats.RowsScanned == 0 {
			t.Fatalf("probe %d alone: %+v, %v", p.ID, stats, err)
		}
		wantScanned += int64(stats.RowsScanned)
	}

	var memo exec.SelectionMemo
	var scanned, reused atomic.Int64
	var wg sync.WaitGroup
	const rounds = 25
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds*len(probes); i++ {
				p := probes[(i+w)%len(probes)]
				ok, stats, err := col.Exists(plan, exec.ExecOptions{ColumnPredicates: []exec.ColumnPredicate{p}, Selections: &memo})
				if err != nil || !ok {
					t.Errorf("probe %d: Exists = %v, %v", p.ID, ok, err)
					return
				}
				scanned.Add(int64(stats.RowsScanned))
				reused.Add(int64(stats.SelectionsReused))
			}
		}(w)
	}
	wg.Wait()
	if scanned.Load() != wantScanned {
		t.Errorf("%d rows scanned for %d keys, want one selection each: %d", scanned.Load(), len(probes), wantScanned)
	}
	if want := int64(workers*rounds*len(probes) - len(probes)); reused.Load() != want {
		t.Errorf("%d selections reused, want every probe but the %d that filled: %d", reused.Load(), len(probes), want)
	}

	mondial := difftest.Databases(t)["mondial"]
	mcol := buildColumnar(t, mondial)
	poolRounds, filters := poolFilters(t, mondial)
	for ri, round := range poolRounds {
		alone := &filter.Validator{DB: mcol, Cells: filter.NewCells(round.Spec)}
		reference := &filter.Validator{DB: mondial, Cells: filter.NewCells(round.Spec)}
		var want exec.ExecStats
		verdicts := make([]bool, len(filters[ri]))
		for i, f := range filters[ri] {
			res, err := alone.Validate(f)
			if err != nil {
				t.Fatal(err)
			}
			if ref, err := reference.Validate(f); err != nil || ref.Passed != res.Passed {
				t.Fatalf("%s %s: passed = %v; mem says %v, %v", round.Name, f, res.Passed, ref.Passed, err)
			}
			verdicts[i] = res.Passed
			want.Add(res.Cost)
		}
		shared := &filter.Validator{DB: mcol, Cells: filter.NewCells(round.Spec)}
		var next atomic.Int64
		var got exec.ExecStats
		var mu sync.Mutex
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var mine exec.ExecStats
				for i := int(next.Add(1)) - 1; i < len(filters[ri]); i = int(next.Add(1)) - 1 {
					res, err := shared.Validate(filters[ri][i])
					if err != nil || res.Passed != verdicts[i] {
						t.Errorf("%s %s: passed = %v, %v; alone %v", round.Name, filters[ri][i], res.Passed, err, verdicts[i])
					}
					mine.Add(res.Cost)
				}
				mu.Lock()
				got.Add(mine)
				mu.Unlock()
			}()
		}
		wg.Wait()
		if got.RowsScanned != want.RowsScanned || got.SelectionsReused != want.SelectionsReused {
			t.Errorf("%s: %d workers scanned %d rows and reused %d selections, one worker %d and %d",
				round.Name, workers, got.RowsScanned, got.SelectionsReused, want.RowsScanned, want.SelectionsReused)
		}
		if n, want := shared.Cells.Selections().Len(), alone.Cells.Selections().Len(); n != want {
			t.Errorf("%s: %d workers left %d selections, one worker %d", round.Name, workers, n, want)
		}
	}
}

// TestInterruptedFillIsNotPublished interrupts the probe that is filling a
// key: the key stays absent, the next probe selects it and answers as the
// reference engine does, and the one after reads it.
func TestInterruptedFillIsNotPublished(t *testing.T) {
	db, plan := fanDB(t, 2*exec.InterruptEvery, 1)
	col := buildColumnar(t, db)
	pred := exactRange(ref("C", "m"), 10, 1500, 7)
	const selected = 1500 - 10 + 1 // C.m holds 0, 1, 2, … once each
	var memo exec.SelectionMemo
	opts := exec.ExecOptions{ColumnPredicates: []exec.ColumnPredicate{pred}, Selections: &memo}

	interrupted := opts
	interrupted.Interrupt = func() bool { return true }
	if _, stats, err := col.Exists(plan, interrupted); !errors.Is(err, exec.ErrInterrupted) {
		t.Fatalf("interrupted fill: err = %v, stats %+v", err, stats)
	} else if stats.RowsScanned == 0 || stats.RowsScanned >= selected {
		t.Fatalf("the interrupt fell outside the fill: %d of %d rows selected", stats.RowsScanned, selected)
	}
	if memo.Len() != 0 {
		t.Fatal("an interrupted fill was left in the memo")
	}

	want, err := db.ExecuteWith(plan, exec.ExecOptions{ColumnPredicates: opts.ColumnPredicates})
	if err != nil {
		t.Fatal(err)
	}
	for pass, wantStats := range []exec.ExecStats{{RowsScanned: selected}, {SelectionsReused: 1}} {
		got, err := col.ExecuteWith(plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, fmt.Sprintf("pass %d after the interrupt", pass), got.Rows, want.Rows)
		if got.Stats.RowsScanned != wantStats.RowsScanned || got.Stats.SelectionsReused != wantStats.SelectionsReused {
			t.Fatalf("pass %d: %d rows scanned, %d selections reused, want %d and %d",
				pass, got.Stats.RowsScanned, got.Stats.SelectionsReused, wantStats.RowsScanned, wantStats.SelectionsReused)
		}
	}
}

// TestPanickingFillIsNotPublished: a predicate that panics during a fill
// leaves nothing in the memo and does not leave it locked — the next probe
// would wait on it forever — and the next probe of the key selects it.
func TestPanickingFillIsNotPublished(t *testing.T) {
	db, plan := fanDB(t, 50, 1)
	col := buildColumnar(t, db)
	var memo exec.SelectionMemo
	bad := exec.ColumnPredicate{Ref: ref("C", "m"), Pred: func(value.Value) bool { panic("predicate bug") }, ID: 3}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the predicate's panic was swallowed")
			}
		}()
		_, _, _ = col.Exists(plan, exec.ExecOptions{ColumnPredicates: []exec.ColumnPredicate{bad}, Selections: &memo})
	}()
	if memo.Len() != 0 {
		t.Fatal("a fill that panicked was left in the memo")
	}
	good := exactRange(ref("C", "m"), 10, 20, bad.ID)
	if ok, stats, err := col.Exists(plan, exec.ExecOptions{ColumnPredicates: []exec.ColumnPredicate{good}, Selections: &memo}); err != nil || !ok || stats.RowsScanned != 11 {
		t.Fatalf("after the panic: Exists = %v, %v, %d rows selected", ok, err, stats.RowsScanned)
	}
	if memo.Len() != 1 {
		t.Fatalf("%d selections kept, want the one that finished", memo.Len())
	}
}

// TestWhatTheMemoTakes: every predicate that says who it is, keyword or
// not, and nothing else. Anonymous predicates are selected by every
// execution, and zone-pruned selections execute exactly as without a memo
// and leave nothing in it; every identified predicate a table carries is an
// entry of its own — filled by the first execution, read by the second —
// and the entries are intersected.
func TestWhatTheMemoTakes(t *testing.T) {
	db := mondial(t)
	col := buildColumnar(t, db)
	// selected counts the rows of Lake a predicate keeps: what selecting it
	// reads.
	selected := func(preds []exec.ColumnPredicate, identified bool) int {
		n := 0
		for _, p := range preds {
			if (p.ID != 0) != identified {
				continue
			}
			vals, err := db.ColumnValues(p.Ref)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vals {
				if p.Pred(v) {
					n++
				}
			}
		}
		return n
	}
	area, name := ref("Lake", "Area"), ref("Lake", "Name")
	keyword := exec.ColumnPredicate{
		Ref:      name,
		Pred:     func(v value.Value) bool { return v.MatchesKeyword("lake tahoe") },
		Keywords: []string{"lake tahoe"},
		ID:       2,
	}
	anonymous := exactRange(area, 100, 600, 0)
	outside := exactRange(area, 1e12, 2e12, 3)
	notNull := exec.ColumnPredicate{Ref: name, Pred: func(v value.Value) bool { return !v.IsNull() }, ID: 4}
	for _, tc := range []struct {
		name  string
		preds []exec.ColumnPredicate
		// stored counts the memo's entries after the executions.
		stored int
	}{
		{"anonymous", []exec.ColumnPredicate{anonymous}, 0},
		{"keyword", []exec.ColumnPredicate{keyword}, 1},
		{"identified beside a keyword", []exec.ColumnPredicate{keyword, exactRange(area, 100, 600, 1)}, 2},
		{"identified beside an anonymous one", []exec.ColumnPredicate{exactRange(area, 100, 600, 1), anonymous}, 1},
		{"zone-pruned", []exec.ColumnPredicate{outside}, 0},
		{"identified", []exec.ColumnPredicate{exactRange(area, 100, 600, 1)}, 1},
		{"two identified on one table", []exec.ColumnPredicate{exactRange(area, 100, 600, 1), notNull}, 2},
	} {
		var memo exec.SelectionMemo
		bare := exec.ExecOptions{ColumnPredicates: tc.preds}
		want, err := db.ExecuteWith(lakePlan(), bare)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := col.ExecuteWith(lakePlan(), bare)
		if err != nil {
			t.Fatal(err)
		}
		memoised := bare
		memoised.Selections = &memo
		for pass := 0; pass < 2; pass++ {
			got, err := col.ExecuteWith(lakePlan(), memoised)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, fmt.Sprintf("%s pass %d", tc.name, pass), got.Rows, want.Rows)
			scanned, reused := selected(tc.preds, false), 0
			if pass == 0 {
				scanned += selected(tc.preds, true)
			} else {
				reused = tc.stored
			}
			switch {
			case got.Stats.ZonesPruned > 0:
				if got.Stats != plain.Stats {
					t.Errorf("%s pass %d: stats %+v, without a memo %+v", tc.name, pass, got.Stats, plain.Stats)
				}
			case got.Stats.RowsScanned != scanned || got.Stats.SelectionsReused != reused || got.Stats.PredicateFiltered != 0:
				t.Errorf("%s pass %d: %d rows scanned, %d selections reused, %d filtered; want %d, %d and 0",
					tc.name, pass, got.Stats.RowsScanned, got.Stats.SelectionsReused, got.Stats.PredicateFiltered, scanned, reused)
			}
		}
		if memo.Len() != tc.stored || memo.Fills() != tc.stored {
			t.Errorf("%s: %d selections stored after %d fills, want %d of each", tc.name, memo.Len(), memo.Fills(), tc.stored)
		}
	}
}

// TestResetDropsTheMemo: a pooled execution state keeps no reference into
// the round's memo — neither the selections it installed nor the cursors
// planned over them — so an idle pool pins no round.
func TestResetDropsTheMemo(t *testing.T) {
	db := mondial(t)
	col := buildColumnar(t, db)
	var memo exec.SelectionMemo
	opts := exec.ExecOptions{
		ColumnPredicates: []exec.ColumnPredicate{exactRange(ref("Lake", "Area"), 100, 600, 1)},
		Selections:       &memo,
	}
	st := &execState{}
	for pass := 0; pass < 2; pass++ { // a fill, then a hit
		rows := 0
		if _, err := col.run(st, lakePlan(), opts, func(value.Tuple) bool { rows++; return true }); err != nil || rows == 0 {
			t.Fatalf("pass %d: %d rows, %v", pass, rows, err)
		}
		installed := false
		for _, sel := range st.sels {
			installed = installed || sel != nil
		}
		if !installed {
			t.Fatalf("pass %d: no selection installed", pass)
		}
		st.reset()
		for i, sel := range st.sels[:cap(st.sels)] {
			if sel != nil {
				t.Fatalf("pass %d: selection slot %d survives reset", pass, i)
			}
		}
		for i, l := range st.levels[:cap(st.levels)] {
			if l.list != nil || l.bm != nil {
				t.Fatalf("pass %d: level %d keeps its cursor over the selection", pass, i)
			}
		}
	}
}

// TestMemoAllocations pins what the memo costs a warm probe: nothing on a
// hit, and on a miss the selection it keeps — the id vector, the bitmap
// and the entry — whatever the size of the table.
func TestMemoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops pooled state on purpose; allocation counts are meaningless")
	}
	db, plan := fanDB(t, 3000, 1)
	col := build(t, db)
	pred := exactRange(ref("C", "m"), 100, 2000, 1)
	var memo exec.SelectionMemo
	hit := exec.ExecOptions{ColumnPredicates: []exec.ColumnPredicate{pred}, Selections: &memo}
	probe := func(opts exec.ExecOptions) {
		if ok, _, err := col.Exists(plan, opts); err != nil || !ok {
			t.Fatalf("Exists = %v, %v", ok, err)
		}
	}
	probe(hit)
	probe(hit)
	if allocs := testing.AllocsPerRun(200, func() { probe(hit) }); allocs != 0 {
		t.Errorf("a memo hit allocates %.2f times per probe, want 0", allocs)
	}
	// Every run below is a miss under a fresh identity in the same memo.
	miss := hit
	miss.ColumnPredicates = []exec.ColumnPredicate{pred}
	allocs := testing.AllocsPerRun(200, func() {
		miss.ColumnPredicates[0].ID++
		probe(miss)
	})
	// The Selection, its id vector, its bitmap (header and words), and the
	// memo's map growing by an entry.
	if allocs < 4 || allocs > 6 {
		t.Errorf("a memo miss allocates %.2f times per probe, want the memo-owned selection only (4 to 6)", allocs)
	}
}

// TestExactBoundsReadTheView runs pure numeric ranges — bounds on stored
// values, between them, the wrong way round, the two zeros, beyond the
// maximum — through every entry point, against the reference engine, which
// evaluates the closure on every row: the key dictionary's sorted views
// answer them.
func TestExactBoundsReadTheView(t *testing.T) {
	db, plan := fanDB(t, 1500, 2)
	col := buildColumnar(t, db)
	for i, b := range [][2]float64{{10, 10}, {10, 11}, {9.5, 10.5}, {2999, 1e9}, {-5, 0}, {20, 10}, {math.Copysign(0, -1), 0}} {
		pred := exactRange(ref("C", "m"), b[0], b[1], 0)
		label := fmt.Sprintf("range %d [%v, %v]", i, b[0], b[1])
		checkAgainstOracle(t, label, col, db, plan, func() exec.ExecOptions {
			return exec.ExecOptions{ColumnPredicates: []exec.ColumnPredicate{pred}}
		})
	}
}
