package filter

import (
	"context"
	"errors"
	"testing"
)

func TestValidateContextCancellation(t *testing.T) {
	fx := newFixture(t)
	set := decomposeFor(t, fx.spec, fx.candidates)
	v := &Validator{DB: fx.db, Cells: NewCells(fx.spec)}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, f := range set.Filters[:1] {
		res, err := v.ValidateContext(ctx, f)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if res.Passed {
			t.Error("cancelled validation must not report a pass")
		}
	}

	// A live context validates normally and agrees with Validate.
	for _, f := range set.Filters {
		got, err := v.ValidateContext(context.Background(), f)
		if err != nil {
			t.Fatal(err)
		}
		want, err := v.Validate(f)
		if err != nil {
			t.Fatal(err)
		}
		if got.Passed != want.Passed {
			t.Errorf("%s: ValidateContext=%v Validate=%v", f, got.Passed, want.Passed)
		}
	}
}
