package exec

import "prism/internal/value"

// PredicateSet is one existence question posed against a shared plan: the
// pushed-down column predicates plus an optional projected-tuple predicate —
// exactly the selection-relevant subset of ExecOptions. A batch of
// PredicateSets over one Plan asks the backend "which of these questions
// does the plan satisfy?", which shared-scan executors answer in a single
// pass over the column data instead of one execution per set.
type PredicateSet struct {
	// ColumnPredicates are pushed down to base-table scans; predicates on
	// tables outside the plan are ignored, matching ExecuteWith.
	ColumnPredicates []ColumnPredicate
	// TuplePredicate, when non-nil, filters projected tuples; the set is
	// satisfied by the first surviving tuple.
	TuplePredicate func(value.Tuple) bool
}

// Verdict is the answer to one PredicateSet of a batch.
type Verdict struct {
	// Satisfied reports whether the plan produces at least one tuple
	// passing the set's predicates — exactly what Exists would report for
	// the same plan under the set's predicates.
	Satisfied bool
}

// SequentialExistsBatch answers a batch with one Exists call per set. It is
// the reference semantics of Executor.ExistsBatch — the differential test
// suite compares every batched implementation against it — and a correct
// (if unoptimised) implementation for backends without a shared-scan path.
//
// Per the ExistsBatch contract, only the execution controls of opts
// (MaxIntermediate, Interrupt, Selections) are honoured; each set supplies
// its own predicates. On error the verdict slice is nil and the stats cover
// the work done up to the failing set.
func SequentialExistsBatch(ex Executor, p Plan, sets []PredicateSet, opts ExecOptions) ([]Verdict, ExecStats, error) {
	verdicts := make([]Verdict, len(sets))
	var total ExecStats
	for i := range sets {
		ok, stats, err := ex.Exists(p, ExecOptions{
			ColumnPredicates: sets[i].ColumnPredicates,
			TuplePredicate:   sets[i].TuplePredicate,
			MaxIntermediate:  opts.MaxIntermediate,
			Interrupt:        opts.Interrupt,
			Selections:       opts.Selections,
		})
		total.Add(stats)
		if err != nil {
			return nil, total, err
		}
		verdicts[i].Satisfied = ok
	}
	return verdicts, total, nil
}
