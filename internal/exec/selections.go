package exec

import (
	"sync"

	"prism/internal/rowset"
	"prism/internal/schema"
)

// Selection is the set of rows of one base table a pushed-down predicate
// keeps: the row ids ascending, and the same set as a bitmap for membership
// tests during join probes. A Selection published to a SelectionMemo is
// owned by the memo and immutable: executions read it concurrently.
type Selection struct {
	IDs  []int32
	Rows *rowset.Bitmap
}

// SelectionKey names one selection in a SelectionMemo: the constrained
// column, spelled as the executor's catalogue spells it, and the
// predicate's ColumnPredicate.ID (never zero).
type SelectionKey struct {
	Ref schema.ColumnRef
	ID  uint32
}

// SelectionMemo holds the selections the executions of one discovery round
// have computed, so that the probes that share a (source column, cell) pair
// pay for one selection between them. Its owner (filter.Validator) creates it
// with the round, hands it to one executor through ExecOptions.Selections
// and drops it with the round: nothing bounds it but the number of distinct
// keys a round asks for, and nothing in it outlives the round. The zero
// value is an empty memo; it is safe for concurrent use and must not be
// copied after first use.
//
// Every key is computed once, by whichever execution meets it first: Acquire
// hands the fill to exactly one caller and holds any other until that caller
// settles it.
type SelectionMemo struct {
	mu sync.Mutex
	// settled is signalled whenever a fill ends, published or given up.
	settled sync.Cond
	// sels maps a key to its published selection; a nil entry is a fill in
	// progress.
	sels map[SelectionKey]*Selection
}

// Acquire returns the selection published under key. When there is none and
// no fill is in progress it returns nil, and the caller owns the fill: it
// must call Settle for the key exactly once, on every path out. While
// another execution owns the fill Acquire waits for it — the length of one
// selection, which that execution's own interrupt cuts short — and then
// answers as above, so a fill that was given up passes to the next caller.
func (m *SelectionMemo) Acquire(key SelectionKey) *Selection {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sels == nil {
		m.sels = make(map[SelectionKey]*Selection)
		m.settled.L = &m.mu
	}
	for {
		sel, claimed := m.sels[key]
		if sel != nil {
			return sel
		}
		if !claimed {
			m.sels[key] = nil
			return nil
		}
		m.settled.Wait()
	}
}

// Settle ends the fill Acquire handed out for key: sel is published as the
// key's selection and must not be written again, or — nil, the fill was
// interrupted or failed — the key goes back to absent, so that a partial
// selection is never read.
func (m *SelectionMemo) Settle(key SelectionKey, sel *Selection) {
	m.mu.Lock()
	if sel == nil {
		delete(m.sels, key)
	} else {
		m.sels[key] = sel
	}
	m.mu.Unlock()
	m.settled.Broadcast()
}
