package filter

import (
	"testing"

	"prism/internal/constraint"
	"prism/internal/exec"
)

// recordingExecutor notes what the validator hands the backend and answers
// through the reference engine.
type recordingExecutor struct {
	exec.Executor
	probes  [][]exec.ColumnPredicate // one entry per Exists call
	options []exec.ExecOptions       // one entry per Exists call
}

func (r *recordingExecutor) Exists(p exec.Plan, opts exec.ExecOptions) (bool, exec.ExecStats, error) {
	r.probes = append(r.probes, opts.ColumnPredicates)
	r.options = append(r.options, opts)
	return r.Executor.Exists(p, opts)
}

// TestPredicateIdentities pins what the round table's selections rely on:
// two round tables of one specification push down the same predicates for
// the same (filter, sample), every constrained cell has one non-zero identity
// of its own, equal identity means the same predicate on whichever column —
// the very same bounds and keyword slices — and every probe of one Validator
// carries its table's selections, which no other table shares.
func TestPredicateIdentities(t *testing.T) {
	fx := newFixture(t)
	spec, err := constraint.ParseGrid(3, [][]string{
		{"California || Nevada", "Lake Tahoe", "[400, 600]"},
		{"Oregon", "", "[50, 60]"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	set := decomposeFor(t, spec, fx.candidates)
	one := &recordingExecutor{Executor: fx.db}
	other := &recordingExecutor{Executor: fx.db}
	v1 := &Validator{DB: one, Cells: NewCells(spec)}
	v2 := &Validator{DB: other, Cells: NewCells(spec)}
	for _, f := range set.Filters {
		// Validate stops at the first failing sample; ask for each sample's
		// predicates directly as well, so both rows are always compared.
		for _, v := range []*Validator{v1, v2} {
			if _, err := v.Validate(f); err != nil {
				t.Fatal(err)
			}
		}
		for si := range spec.Samples {
			a, b := v1.Cells.predicates(f, si), v2.Cells.predicates(f, si)
			if len(a) != len(b) {
				t.Fatalf("%s sample %d: %d predicates, then %d", f, si, len(a), len(b))
			}
			for i := range a {
				if a[i].Ref != b[i].Ref || a[i].ID != b[i].ID || a[i].BoundsExact != b[i].BoundsExact {
					t.Errorf("%s sample %d predicate %d differs between validators: %+v vs %+v", f, si, i, a[i], b[i])
				}
			}
		}
	}

	for _, rec := range []*recordingExecutor{one, other} {
		// The contract holds within one memo, that is within one Validator.
		templates := make(map[uint32]exec.ColumnPredicate)
		ids := make(map[uint32]bool)
		for _, preds := range rec.probes {
			for _, p := range preds {
				if p.ID == 0 {
					t.Fatalf("anonymous predicate on %s from the validator", p.Ref)
				}
				ids[p.ID] = true
				first, seen := templates[p.ID]
				if !seen {
					templates[p.ID] = p
					continue
				}
				sameKeywords := len(first.Keywords) == len(p.Keywords) && (len(p.Keywords) == 0 || &first.Keywords[0] == &p.Keywords[0])
				if first.Bounds != p.Bounds || first.BoundsExact != p.BoundsExact || !sameKeywords {
					t.Errorf("identity %d names two predicates: %+v and %+v", p.ID, first, p)
				}
			}
		}
		if want := 5; len(ids) != want { // the constrained cells of the two sample rows
			t.Errorf("%d identities issued, want one per constrained cell: %d", len(ids), want)
		}
	}

	for name, rec := range map[string]*recordingExecutor{"one": one, "other": other} {
		if len(rec.options) == 0 {
			t.Fatalf("%s: no call recorded", name)
		}
		for _, o := range rec.options {
			if o.Selections == nil || o.Selections != rec.options[0].Selections {
				t.Fatalf("%s: a probe carries memo %p, the first one %p", name, o.Selections, rec.options[0].Selections)
			}
		}
	}
	if one.options[0].Selections == other.options[0].Selections {
		t.Error("two validators share one memo")
	}
}
