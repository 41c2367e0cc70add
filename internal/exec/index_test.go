package exec

import (
	"fmt"
	"testing"

	"prism/internal/schema"
	"prism/internal/value"
)

// TestColumnIndexAllocsIndependentOfRows: building a key dictionary renders
// and allocates nothing per cell. Over integer, non-integral decimal and
// capitalised text columns of 50 distinct values, a 100k-row column costs as
// many allocations as a 10k-row one, up to a constant; allocations that
// scale with rows, such as a key string per cell, fail it.
func TestColumnIndexAllocsIndependentOfRows(t *testing.T) {
	for _, col := range []struct {
		kind value.Kind
		make func(i int) value.Value
	}{
		{value.Int, func(i int) value.Value { return value.NewInt(int64(i * 7)) }},
		{value.Decimal, func(i int) value.Value { return value.NewDecimal(float64(i) + 0.25) }},
		{value.Text, func(i int) value.Value { return value.NewText(fmt.Sprintf("Lake Number %d", i)) }},
	} {
		allocs := func(n int) float64 {
			rows := make([]value.Tuple, n)
			for i := range rows {
				rows[i] = value.Tuple{col.make(i % 50)}
			}
			ref := schema.ColumnRef{Table: "T", Column: "C"}
			return testing.AllocsPerRun(3, func() { NewColumnIndex(ref, col.kind, rows, 0) })
		}
		small, large := allocs(10_000), allocs(100_000)
		t.Logf("%s: %.0f allocations at 10k rows, %.0f at 100k", col.kind, small, large)
		if large > small+4 {
			t.Errorf("%s: %.0f allocations at 100k rows against %.0f at 10k: set-up allocates per cell", col.kind, large, small)
		}
	}
}

// TestColumnIndexKeepsNoSpareCapacity: the dictionary grows by append while
// it is built and is then cut to its length. A column of 1 000 distinct
// numbers, texts or both would otherwise keep the doubling's spare room: in
// keys, in the sorted number ids, or in the folded texts, which must be
// exactly those of the text ids, back to back.
func TestColumnIndexKeepsNoSpareCapacity(t *testing.T) {
	for _, kinds := range [][]value.Kind{{value.Int}, {value.Text}, {value.Int, value.Text}} {
		rows := make([]value.Tuple, 1_000)
		var numbers, folded int
		for i := range rows {
			if kinds[i%len(kinds)] == value.Int {
				rows[i] = value.Tuple{value.NewInt(int64(i))}
				numbers++
			} else {
				s := fmt.Sprintf("Lake %d", i)
				rows[i] = value.Tuple{value.NewText(s)}
				folded += len(s)
			}
		}
		x, _ := NewColumnIndex(schema.ColumnRef{Table: "T", Column: "C"}, kinds[0], rows, 0)
		if len(x.keys) != len(rows) || cap(x.keys) != len(x.keys) || len(x.numIDs) != numbers || cap(x.numIDs) != numbers || len(x.fold) != folded {
			t.Errorf("%v: keys len %d cap %d, numIDs len %d cap %d, fold %d bytes; want %d keys, %d number ids and %d bytes, and no spare capacity",
				kinds, len(x.keys), cap(x.keys), len(x.numIDs), cap(x.numIDs), len(x.fold), len(rows), numbers, folded)
		}
	}
}
