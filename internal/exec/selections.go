package exec

import (
	"sync"

	"prism/internal/rowset"
)

// Selection is the set of rows of one base table a pushed-down predicate
// keeps: the row ids ascending, and the same set as a bitmap for membership
// tests during join probes. A Selection kept by a SelectionMemo is immutable:
// the estimator and the executions of a round read it as it is.
type Selection struct {
	IDs  []int32
	Rows *rowset.Bitmap
}

// NewSelection returns the selection of the rows in rows, which it keeps.
func NewSelection(rows *rowset.Bitmap) *Selection {
	return &Selection{IDs: rows.AppendTo(make([]int32, 0, rows.Popcount())), Rows: rows}
}

// SelectionMemo is a round's table of selections: the rows each cell of the
// specification (ColumnPredicate.ID) keeps on each source column it meets,
// selected once per round by whichever asks first — the failure estimator
// ranking the round's filters (Rows) or an execution validating one of them
// (Select, through ExecOptions.Selections) — and read back by everyone
// after. Its owner (filter.Cells) creates it with the round and drops it
// with the round: nothing bounds it but the number of distinct pairs a round
// meets. The zero value is an empty table; it is safe for concurrent use and
// must not be copied after first use. One goroutine validates a round's
// filters, so nobody selects a pair twice but callers that race for it.
type SelectionMemo struct {
	mu    sync.Mutex
	sels  map[selectionKey]memoEntry
	fills int
}

// selectionKey names one selection: the key dictionary of the column and
// the predicate's ColumnPredicate.ID (never zero).
type selectionKey struct {
	col *ColumnIndex
	id  uint32
}

// memoEntry is a kept selection, and whether an execution has taken it.
type memoEntry struct {
	sel   *Selection
	taken bool
}

// Select returns the rows of column x that cp keeps, for an execution to
// install, and whether an earlier execution of the round took them (reused).
// The first execution to take a selection accounts for selecting it, whether
// it selects it or the estimator had, so what an execution reports does not
// depend on what the estimator asked before it. A fill that interrupt cut
// short is returned, with the rows selected so far, and not kept (aborted).
func (m *SelectionMemo) Select(x *ColumnIndex, cp *ColumnPredicate, interrupt *InterruptChecker) (sel *Selection, reused, aborted bool) {
	e, _, aborted := m.get(x, cp, interrupt, true)
	return e.sel, e.taken, aborted
}

// Rows returns the rows of column x that cp keeps, for the failure
// estimator to read, and whether this call selected them (filled).
func (m *SelectionMemo) Rows(x *ColumnIndex, cp *ColumnPredicate) (sel *Selection, filled bool) {
	e, filled, _ := m.get(x, cp, nil, false)
	return e.sel, filled
}

// get returns the entry kept for (x, cp.ID) as it was before this call,
// selecting it (ColumnIndex.Select) when there is none; take marks it taken
// by an execution. cp.ID must not be zero. The selection runs outside the
// lock, since cp.Pred is the caller's code: a fill that was interrupted, or
// whose predicate panicked, keeps nothing, and when concurrent callers both
// select a pair the first selection kept is the one everybody reads.
func (m *SelectionMemo) get(x *ColumnIndex, cp *ColumnPredicate, interrupt *InterruptChecker, take bool) (e memoEntry, filled, aborted bool) {
	key := selectionKey{x, cp.ID}
	m.mu.Lock()
	e, kept := m.sels[key]
	if !kept {
		m.fills++
		m.mu.Unlock()
		rows := rowset.New(x.NumRows())
		if x.Select(cp, rows, interrupt) {
			return memoEntry{sel: NewSelection(rows)}, true, true
		}
		fresh := NewSelection(rows)
		m.mu.Lock()
		if e, kept = m.sels[key]; !kept {
			e = memoEntry{sel: fresh}
		}
		filled = true
	}
	if !kept || take && !e.taken {
		if m.sels == nil {
			m.sels = make(map[selectionKey]memoEntry)
		}
		m.sels[key] = memoEntry{e.sel, e.taken || take}
	}
	m.mu.Unlock()
	return e, filled, false
}

// Len returns the number of selections the table holds.
func (m *SelectionMemo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sels)
}

// Fills returns the number of selections the table has run, kept or not.
func (m *SelectionMemo) Fills() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fills
}
