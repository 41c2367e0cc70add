// Package batchdiff is the batch⇄sequential differential suite: for every
// bundled dataset it generates validation-shaped plans and random predicate
// batches, and asserts that ExistsBatch verdicts byte-match a loop of
// single Exists calls (exec.SequentialExistsBatch) on both the mem and
// columnar backends — the shared-scan batched path must be observationally
// identical to the per-probe path it replaces, on satisfied, unsatisfied
// and mixed batches, empty batches, batches of one, and under cancellation
// mid-batch.
package batchdiff

import (
	"errors"
	"math/rand"
	"testing"

	"prism/internal/dataset"
	"prism/internal/difftest"
	"prism/internal/exec"
	"prism/internal/mem"
	"prism/internal/value"

	_ "prism/internal/colexec" // register the columnar backend
)

// diffDataset is one dataset fixture of the differential suite.
type diffDataset struct {
	name  string
	build func() (*mem.Database, error)
}

func diffDatasets() []diffDataset {
	return []diffDataset{
		{"mondial", func() (*mem.Database, error) {
			return dataset.Mondial(dataset.MondialConfig{
				Seed: 7, Countries: 4, ProvincesPerCountry: 3, CitiesPerProvince: 2,
				Lakes: 40, Rivers: 20, Mountains: 12,
			})
		}},
		{"imdb", func() (*mem.Database, error) { return dataset.IMDB(dataset.IMDBConfig{}) }},
		{"nba", func() (*mem.Database, error) { return dataset.NBA(dataset.NBAConfig{}) }},
	}
}

// verdictBytes renders a verdict slice as one byte per set, so equality
// assertions are literal byte-matches.
func verdictBytes(vs []exec.Verdict) string {
	b := make([]byte, len(vs))
	for i, v := range vs {
		if v.Satisfied {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

func buildExecutors(t *testing.T, build func() (*mem.Database, error)) (*mem.Database, exec.Executor) {
	t.Helper()
	db, err := build()
	if err != nil {
		t.Fatal(err)
	}
	col, err := exec.New("columnar", db)
	if err != nil {
		t.Fatal(err)
	}
	return db, col
}

// TestBatchSequentialDifferential is the core differential sweep: random
// batches over every plan of every dataset, batch verdicts must byte-match
// the sequential loop on both backends and across backends.
func TestBatchSequentialDifferential(t *testing.T) {
	for _, ds := range diffDatasets() {
		ds := ds
		t.Run(ds.name, func(t *testing.T) {
			db, col := buildExecutors(t, ds.build)
			plans := difftest.Plans(db.Schema())
			if len(plans) < 3 {
				t.Fatalf("only %d plans derived — fixture too weak", len(plans))
			}
			rng := rand.New(rand.NewSource(42))
			sat, unsat := 0, 0
			for pi, plan := range plans {
				for round := 0; round < 4; round++ {
					sets := make([]exec.PredicateSet, rng.Intn(7))
					for i := range sets {
						sets[i] = difftest.RandomSet(rng, db, plan)
					}
					batch, _, err := col.ExistsBatch(plan, sets, exec.ExecOptions{})
					if err != nil {
						t.Fatalf("plan %d round %d: columnar ExistsBatch: %v", pi, round, err)
					}
					seqCol, _, err := exec.SequentialExistsBatch(col, plan, sets, exec.ExecOptions{})
					if err != nil {
						t.Fatalf("plan %d round %d: columnar sequential: %v", pi, round, err)
					}
					memBatch, _, err := db.ExistsBatch(plan, sets, exec.ExecOptions{})
					if err != nil {
						t.Fatalf("plan %d round %d: mem ExistsBatch: %v", pi, round, err)
					}
					got, wantSeq, wantMem := verdictBytes(batch), verdictBytes(seqCol), verdictBytes(memBatch)
					if got != wantSeq {
						t.Fatalf("plan %d (%v) round %d: columnar batch %s != columnar sequential %s", pi, plan.Tables, round, got, wantSeq)
					}
					if got != wantMem {
						t.Fatalf("plan %d (%v) round %d: columnar batch %s != mem %s", pi, plan.Tables, round, got, wantMem)
					}
					for _, v := range batch {
						if v.Satisfied {
							sat++
						} else {
							unsat++
						}
					}
				}
			}
			if sat == 0 || unsat == 0 {
				t.Fatalf("suite produced %d satisfied / %d unsatisfied verdicts — fixture cannot catch one-sided bugs", sat, unsat)
			}
		})
	}
}

// TestBatchMixedVerdicts pins an explicitly mixed batch: an unconstrained
// set (satisfied whenever the plan is non-empty), a nonsense-keyword set
// (unsatisfied), and a scan-shaped set, in one call.
func TestBatchMixedVerdicts(t *testing.T) {
	for _, ds := range diffDatasets() {
		ds := ds
		t.Run(ds.name, func(t *testing.T) {
			db, col := buildExecutors(t, ds.build)
			plans := difftest.Plans(db.Schema())
			plan := plans[len(plans)-1]
			ref := plan.Project[0]
			sets := []exec.PredicateSet{
				{}, // unconstrained
				{ColumnPredicates: []exec.ColumnPredicate{{
					Ref:      ref,
					Pred:     func(c value.Value) bool { return c.MatchesKeyword("zz-nothing-matches-zz") },
					Keywords: []string{"zz-nothing-matches-zz"},
				}}},
				{ColumnPredicates: []exec.ColumnPredicate{{
					Ref:  ref,
					Pred: func(c value.Value) bool { return !c.IsNull() },
				}}},
			}
			batch, _, err := col.ExistsBatch(plan, sets, exec.ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			seq, _, err := exec.SequentialExistsBatch(col, plan, sets, exec.ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if verdictBytes(batch) != verdictBytes(seq) {
				t.Fatalf("mixed batch %s != sequential %s", verdictBytes(batch), verdictBytes(seq))
			}
			if batch[1].Satisfied {
				t.Fatal("nonsense keyword set should be unsatisfied")
			}
			if !batch[0].Satisfied {
				t.Fatal("unconstrained set over a non-empty plan should be satisfied")
			}
		})
	}
}

// TestBatchEmptyAndSingleton covers the degenerate batch shapes on both
// backends: an empty batch returns an empty verdict slice and no error; a
// batch of one matches the direct Exists answer.
func TestBatchEmptyAndSingleton(t *testing.T) {
	for _, ds := range diffDatasets() {
		ds := ds
		t.Run(ds.name, func(t *testing.T) {
			db, col := buildExecutors(t, ds.build)
			plan := difftest.Plans(db.Schema())[0]
			for _, ex := range []exec.Executor{db, col} {
				vs, stats, err := ex.ExistsBatch(plan, nil, exec.ExecOptions{})
				if err != nil {
					t.Fatalf("%s: empty batch: %v", ex.ExecutorName(), err)
				}
				if len(vs) != 0 {
					t.Fatalf("%s: empty batch returned %d verdicts", ex.ExecutorName(), len(vs))
				}
				if stats != (exec.ExecStats{}) {
					t.Fatalf("%s: empty batch did work: %+v", ex.ExecutorName(), stats)
				}

				set := exec.PredicateSet{ColumnPredicates: []exec.ColumnPredicate{{
					Ref:  plan.Project[0],
					Pred: func(c value.Value) bool { return !c.IsNull() },
				}}}
				vs, _, err = ex.ExistsBatch(plan, []exec.PredicateSet{set}, exec.ExecOptions{})
				if err != nil {
					t.Fatalf("%s: singleton batch: %v", ex.ExecutorName(), err)
				}
				want, _, err := ex.Exists(plan, exec.ExecOptions{
					ColumnPredicates: set.ColumnPredicates,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(vs) != 1 || vs[0].Satisfied != want {
					t.Fatalf("%s: singleton batch %v, Exists says %v", ex.ExecutorName(), vs, want)
				}
			}
		})
	}
}

// TestBatchCancellationMidBatch drives a batch over a dataset large enough
// that the interrupt poll cadence (exec.InterruptEvery) fires mid-scan:
// both backends must abort with exec.ErrInterrupted, exactly like the
// sequential path under a cancelled context.
func TestBatchCancellationMidBatch(t *testing.T) {
	db, err := dataset.Mondial(dataset.MondialConfig{
		Seed: 5, Countries: 4, ProvincesPerCountry: 3, CitiesPerProvince: 2,
		Lakes: 2 * exec.InterruptEvery, Rivers: 20, Mountains: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	col, err := exec.New("columnar", db)
	if err != nil {
		t.Fatal(err)
	}
	// The biggest two-table plan: guaranteed to scan past one interrupt
	// window.
	var plan exec.Plan
	best := 0
	for _, p := range difftest.Plans(db.Schema()) {
		rows := 0
		for _, tbl := range p.Tables {
			rows += db.NumRows(tbl)
		}
		if len(p.Tables) >= 2 && rows > best {
			best, plan = rows, p
		}
	}
	if best < exec.InterruptEvery {
		t.Fatalf("largest plan scans only %d rows; cannot cross the %d-step interrupt window", best, exec.InterruptEvery)
	}
	scanSet := func() exec.PredicateSet {
		return exec.PredicateSet{ColumnPredicates: []exec.ColumnPredicate{{
			Ref:  plan.Project[0],
			Pred: func(c value.Value) bool { return !c.IsNull() },
		}}}
	}
	sets := []exec.PredicateSet{scanSet(), scanSet(), scanSet()}
	opts := exec.ExecOptions{Interrupt: func() bool { return true }}
	for _, ex := range []exec.Executor{db, col} {
		vs, _, err := ex.ExistsBatch(plan, sets, opts)
		if !errors.Is(err, exec.ErrInterrupted) {
			t.Fatalf("%s: batch under cancelled context: err = %v, want ErrInterrupted", ex.ExecutorName(), err)
		}
		if vs != nil {
			t.Fatalf("%s: interrupted batch leaked verdicts %v", ex.ExecutorName(), vs)
		}
	}
	// The sequential loop agrees on the error.
	if _, _, err := exec.SequentialExistsBatch(col, plan, sets, opts); !errors.Is(err, exec.ErrInterrupted) {
		t.Fatalf("sequential loop under cancelled context: err = %v, want ErrInterrupted", err)
	}
}

// TestBatchMaxIntermediateFallback pins the runaway-join guard: with a
// MaxIntermediate too small for the shared scan, the batched path must
// still agree with the sequential loop (both abort, or the batch falls
// back to per-set execution and matches its verdicts).
func TestBatchMaxIntermediateFallback(t *testing.T) {
	db, col := buildExecutors(t, diffDatasets()[0].build)
	var plan exec.Plan
	for _, p := range difftest.Plans(db.Schema()) {
		if len(p.Tables) >= 2 {
			plan = p
			break
		}
	}
	sets := []exec.PredicateSet{
		{},
		{ColumnPredicates: []exec.ColumnPredicate{{
			Ref:  plan.Project[0],
			Pred: func(c value.Value) bool { return !c.IsNull() },
		}}},
	}
	for _, limit := range []int{1, 3, 10, 1000000} {
		opts := exec.ExecOptions{MaxIntermediate: limit}
		bv, _, berr := col.ExistsBatch(plan, sets, opts)
		sv, _, serr := exec.SequentialExistsBatch(col, plan, sets, opts)
		if (berr == nil) != (serr == nil) {
			t.Fatalf("limit %d: batch err %v, sequential err %v", limit, berr, serr)
		}
		if berr == nil && verdictBytes(bv) != verdictBytes(sv) {
			t.Fatalf("limit %d: batch %s != sequential %s", limit, verdictBytes(bv), verdictBytes(sv))
		}
	}
}
