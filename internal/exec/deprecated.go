package exec

import "prism/internal/value"

// What is left of batched validation. Nothing in the program calls any of
// it; benchmark/trace.go still compiles against these names, and ROADMAP
// item 0 removes them together with its timedExecutor.ExistsBatch.

// PredicateSet is the predicates of one Exists call.
//
// Deprecated: ROADMAP item 0 removes it together with
// timedExecutor.ExistsBatch.
type PredicateSet struct {
	ColumnPredicates []ColumnPredicate
	TuplePredicate   func(value.Tuple) bool
}

// Verdict is what Exists returned for one PredicateSet.
//
// Deprecated: ROADMAP item 0 removes it together with
// timedExecutor.ExistsBatch.
type Verdict struct {
	Satisfied bool
}

// SequentialExistsBatch is one Exists call per set under opts' execution
// controls (MaxIntermediate, Interrupt, Selections), stopping at the first
// error. Every Executor.ExistsBatch is this function.
//
// Deprecated: ROADMAP item 0 removes it together with
// timedExecutor.ExistsBatch.
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
