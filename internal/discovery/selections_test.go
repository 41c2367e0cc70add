package discovery

import (
	"context"
	"strings"
	"testing"

	"prism/internal/colexec"
	"prism/internal/constraint"
	"prism/internal/exec"
)

// tableRecorder runs the round's probes on the columnar executor and notes
// the round table they carry and the (source column, cell) pairs they put
// to it.
type tableRecorder struct {
	exec.Executor
	table *exec.SelectionMemo
	// carried and unpruned are the pairs the probes carried: all of them,
	// and those of probes no selection of which the key dictionary proved
	// empty before asking the table.
	carried, unpruned map[pair]bool
	probes, shared    int
}

// pair is a source column, lower-cased, and a cell's identity.
type pair struct {
	column string
	cell   uint32
}

func (r *tableRecorder) Exists(p exec.Plan, opts exec.ExecOptions) (bool, exec.ExecStats, error) {
	ok, stats, err := r.Executor.Exists(p, opts)
	r.probes++
	if r.table == nil || opts.Selections == r.table {
		r.shared++
	}
	r.table = opts.Selections
	for _, cp := range opts.ColumnPredicates {
		p := pair{strings.ToLower(cp.Ref.String()), cp.ID}
		r.carried[p] = true
		if stats.ZonesPruned == 0 {
			r.unpruned[p] = true
		}
	}
	return ok, stats, err
}

// TestEachPairIsSelectedOnce runs the walkthrough and a value-range round
// under the Bayes estimator, which ranks every filter before the first
// validation, and under the path-length and random baselines, which select
// no rows: every distinct (source column, cell) pair the round meets is
// selected exactly once — by the estimator when it ranks with one, else by
// the first validation that carries it — keyword cells as much as the range.
// The oracle is left out: it validates every filter before the schedule, on
// a table of its own.
func TestEachPairIsSelectedOnce(t *testing.T) {
	db := smallMondial(t)
	col, err := colexec.New(db)
	if err != nil {
		t.Fatal(err)
	}
	rangeSpec, err := constraint.ParseGrid(3, [][]string{{"California || Nevada", "", "[100, 600]"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, spec := range map[string]*constraint.Spec{"walkthrough": paperSpec(t), "range": rangeSpec} {
		for _, est := range estimators {
			if est.name == "oracle" {
				continue
			}
			rec := &tableRecorder{Executor: col, carried: map[pair]bool{}, unpruned: map[pair]bool{}}
			report, err := NewEngineOn(db, rec).Discover(context.Background(), spec, Options{estimator: est.build, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			label := name + " " + est.name
			if rec.probes == 0 || rec.shared != rec.probes || rec.table == nil {
				t.Fatalf("%s: %d of %d probes carry the round's table", label, rec.shared, rec.probes)
			}
			fills, kept := rec.table.Fills(), rec.table.Len()
			if fills != kept {
				t.Errorf("%s: %d selections for %d pairs: a pair was selected twice", label, fills, kept)
			}
			bayes := est.build == nil
			if kept < len(rec.unpruned) || kept > len(rec.carried) && !bayes {
				t.Errorf("%s: %d pairs selected, the validations carried %d (%d on tables not proved empty)",
					label, kept, len(rec.carried), len(rec.unpruned))
			}
			cellSets, _ := report.Trace.Find("estimate").Attrs["cell_sets"].(int)
			if bayes {
				if cellSets != kept || kept < len(rec.carried) {
					t.Errorf("%s: the estimator selected %d pairs, the table holds %d, the validations carried %d",
						label, cellSets, kept, len(rec.carried))
				}
			} else if cellSets != 0 {
				t.Errorf("%s: the %s estimator selected %d pairs", label, est.name, cellSets)
			}
			t.Logf("%s: %d pairs selected once each; %d probes, %d selections reused", label, kept, rec.probes, report.Cost.SelectionsReused)
		}
	}
}
