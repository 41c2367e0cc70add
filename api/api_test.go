package api

import (
	"slices"
	"testing"
)

func TestSplitCells(t *testing.T) {
	for _, tc := range []struct {
		line string
		want []string
	}{
		{"California || Nevada | Lake Tahoe | ", []string{"California || Nevada", "Lake Tahoe", ""}},
		{"a | b | c", []string{"a", "b", "c"}},
		{"a", []string{"a", "", ""}},
		{"a | b | c", []string{"a", "b"}},
		// A '||' with a blank side separates empty cells.
		{"||X", []string{"", "", "X"}},
		{"A||B|C", []string{"A||B", "C"}},
	} {
		if got := SplitCells(tc.line, len(tc.want)); !slices.Equal(got, tc.want) {
			t.Errorf("SplitCells(%q, %d) = %#v, want %#v", tc.line, len(tc.want), got, tc.want)
		}
	}
	if got := SplitCells("a | b", -1); len(got) != 0 {
		t.Errorf("SplitCells with a negative count = %#v, want no cells", got)
	}
}
