package mem

import (
	"errors"
	"fmt"
	"testing"

	"prism/internal/exec"
	"prism/internal/schema"
	"prism/internal/value"
)

// bigJoinDB builds a two-table database large enough that a join scans more
// than exec.InterruptEvery rows, so the Interrupt poll is guaranteed to fire.
func bigJoinDB(t testing.TB) *Database {
	t.Helper()
	s := schema.New()
	for _, tab := range []*schema.Table{
		schema.MustTable("L",
			schema.Column{Name: "K", Type: value.Text},
			schema.Column{Name: "V", Type: value.Int},
		),
		schema.MustTable("R",
			schema.Column{Name: "K", Type: value.Text},
			schema.Column{Name: "W", Type: value.Int},
		),
	} {
		if err := s.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddForeignKey(schema.ForeignKey{
		From: schema.ColumnRef{Table: "L", Column: "K"},
		To:   schema.ColumnRef{Table: "R", Column: "K"},
	}); err != nil {
		t.Fatal(err)
	}
	db := NewDatabase("big", s)
	for i := 0; i < 3*exec.InterruptEvery; i++ {
		k := fmt.Sprintf("k%d", i)
		if err := db.InsertStrings("L", k, fmt.Sprint(i)); err != nil {
			t.Fatal(err)
		}
		if err := db.InsertStrings("R", k, fmt.Sprint(i)); err != nil {
			t.Fatal(err)
		}
	}
	db.Analyze()
	return db
}

func bigJoinPlan() exec.Plan {
	return exec.Plan{
		Tables: []string{"L", "R"},
		Joins: []exec.JoinEdge{{
			Left:  schema.ColumnRef{Table: "L", Column: "K"},
			Right: schema.ColumnRef{Table: "R", Column: "K"},
		}},
		Project: []schema.ColumnRef{{Table: "L", Column: "V"}, {Table: "R", Column: "W"}},
	}
}

func TestExecuteInterrupt(t *testing.T) {
	db := bigJoinDB(t)
	plan := bigJoinPlan()

	// An armed interrupt aborts mid-scan with ErrInterrupted and partial
	// stats instead of completing the join.
	polls := 0
	res, err := db.ExecuteWith(plan, exec.ExecOptions{Interrupt: func() bool {
		polls++
		return true
	}})
	if !errors.Is(err, exec.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if polls == 0 {
		t.Fatal("interrupt was never polled")
	}
	if res == nil {
		t.Fatal("interrupted execution should return partial stats")
	}
	if res.Stats.RowsScanned == 0 || res.Stats.RowsScanned >= 6*exec.InterruptEvery {
		t.Errorf("interrupted scan read %d rows; expected a prompt partial stop", res.Stats.RowsScanned)
	}

	// A disarmed interrupt changes nothing.
	full, err := db.ExecuteWith(plan, exec.ExecOptions{Interrupt: func() bool { return false }})
	if err != nil {
		t.Fatal(err)
	}
	if full.NumRows() != 3*exec.InterruptEvery {
		t.Errorf("join lost rows under a passive interrupt: %d", full.NumRows())
	}
}

func TestExistsInterrupt(t *testing.T) {
	db := bigJoinDB(t)
	ok, _, err := db.Exists(bigJoinPlan(), exec.ExecOptions{
		// Never match, so the scan cannot finish before the poll fires.
		TuplePredicate: func(value.Tuple) bool { return false },
		Interrupt:      func() bool { return true },
	})
	if !errors.Is(err, exec.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if ok {
		t.Error("interrupted Exists must not report a match")
	}
}
