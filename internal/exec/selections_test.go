package exec

import (
	"sync"
	"sync/atomic"
	"testing"

	"prism/internal/rowset"
	"prism/internal/schema"
)

func memoKey(column string, id uint32) SelectionKey {
	return SelectionKey{Ref: schema.ColumnRef{Table: "T", Column: column}, ID: id}
}

// TestSelectionMemoFillProtocol walks one key through the states a fill can
// take: absent (the caller is handed the fill), given up (absent again, the
// next caller is handed it), published (every caller reads it), while other
// keys stay independent.
func TestSelectionMemoFillProtocol(t *testing.T) {
	var m SelectionMemo
	k := memoKey("a", 1)
	if sel := m.Acquire(k); sel != nil {
		t.Fatalf("empty memo answered %+v", sel)
	}
	m.Settle(k, nil)
	if sel := m.Acquire(k); sel != nil {
		t.Fatalf("a fill that was given up left %+v behind", sel)
	}
	want := &Selection{IDs: []int32{1, 4}, Rows: rowset.New(8)}
	m.Settle(k, want)
	for i := 0; i < 2; i++ {
		if sel := m.Acquire(k); sel != want {
			t.Fatalf("read %d: got %p, published %p", i, sel, want)
		}
	}
	for _, other := range []SelectionKey{memoKey("a", 2), memoKey("b", 1)} {
		if sel := m.Acquire(other); sel != nil {
			t.Fatalf("%+v answered with another key's selection", other)
		}
		m.Settle(other, nil)
	}
}

// TestSelectionMemoFillsOncePerKey hammers a few keys from many goroutines:
// every key is filled by exactly one of them, the others wait for it and
// read the selection it published; a first filler that gives up passes the
// fill on instead of leaving the waiters stranded.
func TestSelectionMemoFillsOncePerKey(t *testing.T) {
	const workers, keys = 8, 5
	var m SelectionMemo
	var fills, abandoned [keys]atomic.Int32
	published := make([]*Selection, keys)
	for i := range published {
		published[i] = &Selection{IDs: []int32{int32(i)}}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for i := 0; i < keys; i++ {
					ki := (i + w) % keys
					k := memoKey("c", uint32(ki+1))
					sel := m.Acquire(k)
					if sel == nil {
						// The first filler of every odd key gives up once.
						if ki%2 == 1 && abandoned[ki].CompareAndSwap(0, 1) {
							m.Settle(k, nil)
							continue
						}
						fills[ki].Add(1)
						m.Settle(k, published[ki])
						continue
					}
					if sel != published[ki] {
						t.Errorf("key %d read %p, published %p", ki, sel, published[ki])
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for i := range fills {
		if n := fills[i].Load(); n != 1 {
			t.Errorf("key %d was filled %d times", i, n)
		}
	}
}
