package exec

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"prism/internal/schema"
	"prism/internal/value"
)

// intColumn indexes a column holding 0, 1, …, n-1 once each.
func intColumn(name string, n int) *ColumnIndex {
	rows := make([]value.Tuple, n)
	for i := range rows {
		rows[i] = value.Tuple{value.NewInt(int64(i))}
	}
	x, _ := NewColumnIndex(schema.ColumnRef{Table: "T", Column: name}, value.Int, rows, 0)
	return x
}

// below is the predicate "v < n" under identity id.
func below(n int64, id uint32) *ColumnPredicate {
	return &ColumnPredicate{Pred: func(v value.Value) bool { return !v.IsNull() && v.Int() < n }, ID: id}
}

// TestSelectionMemoFillProtocol walks one key through the states a fill can
// take: absent (the caller selects it), interrupted (handed back partial and
// not kept: the next caller selects it again), panicking (not kept, and the
// table not left locked), kept (every caller reads the same selection),
// while the same identity on another column is a key of its own; and a
// selection the estimator made is reused by the second execution to take it.
func TestSelectionMemoFillProtocol(t *testing.T) {
	x := intColumn("a", 3*InterruptEvery)
	var m SelectionMemo

	var fire InterruptChecker
	fire.Reset(func() bool { return true })
	sel, reused, aborted := m.Select(x, below(2*InterruptEvery, 1), &fire)
	if reused || !aborted || len(sel.IDs) == 0 || len(sel.IDs) >= 2*InterruptEvery {
		t.Fatalf("interrupted fill: %d rows, reused %v, aborted %v", len(sel.IDs), reused, aborted)
	}
	if m.Len() != 0 {
		t.Fatal("an interrupted fill was kept")
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the predicate's panic was swallowed")
			}
		}()
		m.Select(x, &ColumnPredicate{Pred: func(value.Value) bool { panic("predicate bug") }, ID: 1}, nil)
	}()
	if m.Len() != 0 {
		t.Fatal("a fill that panicked was kept")
	}

	want, reused, aborted := m.Select(x, below(5, 1), nil)
	if reused || aborted || !slices.Equal(want.IDs, []int32{0, 1, 2, 3, 4}) || want.Rows.Popcount() != 5 {
		t.Fatalf("fill: %v, reused %v, aborted %v", want.IDs, reused, aborted)
	}
	for i := 0; i < 2; i++ {
		if sel, reused, aborted := m.Select(x, below(5, 1), nil); sel != want || !reused || aborted {
			t.Fatalf("read %d: got %p (reused %v, aborted %v), kept %p", i, sel, reused, aborted, want)
		}
	}
	other := intColumn("b", 10)
	if sel, reused, _ := m.Select(other, below(5, 1), nil); sel == want || reused {
		t.Fatal("the identity on another column answered with the first column's selection")
	}
	if sel, reused, _ := m.Select(x, below(3, 2), nil); sel == want || reused || len(sel.IDs) != 3 {
		t.Fatal("another identity on the column answered with the first one's selection")
	}

	// The estimator's reads: the first fills, the second reads; the first
	// execution to take the selection is not reusing an execution's.
	est, filled := m.Rows(x, below(7, 3))
	if again, refilled := m.Rows(x, below(7, 3)); !filled || refilled || again != est || len(est.IDs) != 7 {
		t.Fatalf("estimator reads: filled %v then %v, %d rows", filled, refilled, len(est.IDs))
	}
	for i, wantReused := range []bool{false, true} {
		if sel, reused, _ := m.Select(x, below(7, 3), nil); sel != est || reused != wantReused {
			t.Fatalf("execution %d after the estimator: same selection %v, reused %v", i, sel == est, reused)
		}
	}
	if m.Len() != 4 || m.Fills() != 6 {
		t.Fatalf("%d selections kept after %d fills, want 4 after 6", m.Len(), m.Fills())
	}
}

// TestSelectionMemoKeepsOneSelectionPerKey hammers a few keys from many
// goroutines, as executions: whoever selects a key, every caller reads the
// one selection the table kept, with the key's rows; exactly one caller per
// key takes it first (not reused), and a first fill that is interrupted
// keeps nothing and passes the key on.
func TestSelectionMemoKeepsOneSelectionPerKey(t *testing.T) {
	const workers, keys = 8, 5
	x := intColumn("c", 2*InterruptEvery)
	var m SelectionMemo
	var interrupted [keys]atomic.Bool
	var firstTakers [keys]atomic.Int32
	preds := make([]*ColumnPredicate, keys)
	for i := range preds {
		preds[i] = &ColumnPredicate{Pred: func(v value.Value) bool {
			return !v.IsNull() && v.Int()%keys == int64(i)
		}, ID: uint32(i + 1)}
	}
	kept := make([]atomic.Pointer[Selection], keys)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for i := 0; i < keys; i++ {
					ki := (i + w) % keys
					var interrupt InterruptChecker
					if ki%2 == 1 {
						// The first fill of every odd key is interrupted.
						interrupt.Reset(func() bool { return interrupted[ki].CompareAndSwap(false, true) })
					}
					sel, reused, aborted := m.Select(x, preds[ki], &interrupt)
					if aborted {
						continue
					}
					if !reused {
						firstTakers[ki].Add(1)
					}
					if first := kept[ki].Swap(sel); first != nil && first != sel {
						t.Errorf("key %d read %p, then %p", ki, sel, first)
					}
					if len(sel.IDs) != (x.NumRows()+keys-1-ki)/keys {
						t.Errorf("key %d holds %d rows", ki, len(sel.IDs))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if m.Len() != keys || m.Fills() < keys+keys/2 {
		t.Errorf("%d selections kept after %d fills, want %d after at least %d", m.Len(), m.Fills(), keys, keys+keys/2)
	}
	for i := range firstTakers {
		if n := firstTakers[i].Load(); n != 1 {
			t.Errorf("key %d: %d callers took it first", i, n)
		}
	}
}
