package discovery

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"prism/api"
	"prism/internal/colexec"
	"prism/internal/exec"
	"prism/internal/sched"
)

// TestRoundStopsAtEveryStageBoundary kills the round's context from a
// synchronous emit at each stage boundary, once as the caller's cancellation
// and once with the budget's cause, and checks what Engine.run's one exit
// makes of it: the classification, and a report that carries exactly what
// the completed stages produced.
func TestRoundStopsAtEveryStageBoundary(t *testing.T) {
	e := NewEngine(smallMondial(t))
	spec := paperSpec(t)
	full, err := e.Discover(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Per boundary: which counters of the full round the partial report
	// must already carry.
	boundaries := []struct {
		at                  api.EventKind
		candidates, filters int
		validating          bool
	}{
		{at: api.EventRelated},
		{at: api.EventCandidates, candidates: full.CandidatesEnumerated},
		{at: api.EventFilters, candidates: full.CandidatesEnumerated, filters: full.FiltersGenerated},
		{at: api.EventProgress, candidates: full.CandidatesEnumerated, filters: full.FiltersGenerated, validating: true},
		{at: api.EventMapping, candidates: full.CandidatesEnumerated, filters: full.FiltersGenerated, validating: true},
	}
	causes := []struct {
		name  string
		cause error
	}{{"cancel", context.Canceled}, {"budget", sched.ErrBudget}}

	var reached []string
	defer func() {
		if t.Failed() {
			t.Logf("boundaries reached: %v", reached)
		}
	}()
	for _, b := range boundaries {
		for _, c := range causes {
			name := fmt.Sprintf("%s/%s", b.at, c.name)
			ctx, cancel := context.WithCancelCause(context.Background())
			fired, streamed := false, 0
			report, err := e.run(ctx, spec, Options{}, func(ev Event) {
				// One outcome's callbacks run to their end: a mapping event may
				// be followed by the rest of its outcome's, nothing else by any.
				if fired && b.at != api.EventMapping {
					t.Errorf("%s: %s event after the context died", name, ev.Kind)
				}
				if ev.Kind == api.EventMapping {
					streamed++
				}
				if ev.Kind == b.at {
					fired = true
					cancel(c.cause)
				}
			}, nil)
			cancel(nil)
			if !fired {
				t.Errorf("%s: the round never reached the boundary", name)
				continue
			}
			reached = append(reached, name)

			if c.cause == sched.ErrBudget {
				if err != nil || !report.TimedOut || report.Cancelled {
					t.Errorf("%s: err=%v TimedOut=%v Cancelled=%v, want a clean timeout", name, err, report.TimedOut, report.Cancelled)
				}
			} else if !errors.Is(err, context.Canceled) || !report.Cancelled || report.TimedOut {
				t.Errorf("%s: err=%v TimedOut=%v Cancelled=%v, want a cancellation", name, err, report.TimedOut, report.Cancelled)
			}
			if len(report.Related) != len(full.Related) || report.CandidatesEnumerated != b.candidates || report.FiltersGenerated != b.filters {
				t.Errorf("%s: related=%d candidates=%d filters=%d, want %d, %d, %d", name,
					len(report.Related), report.CandidatesEnumerated, report.FiltersGenerated, len(full.Related), b.candidates, b.filters)
			}
			if !b.validating {
				if report.Validations != 0 || len(report.Mappings) != 0 {
					t.Errorf("%s: %d validations, %d mappings before the scheduler ran", name, report.Validations, len(report.Mappings))
				}
				continue
			}
			// From the first outcome on, the partial report holds the
			// mappings confirmed so far — the ones the stream delivered.
			if report.Validations == 0 || report.Validations >= full.Validations {
				t.Errorf("%s: %d validations, want some but fewer than the full round's %d", name, report.Validations, full.Validations)
			}
			if len(report.Mappings) != streamed || len(report.Mappings) != report.CandidatesConfirmed {
				t.Errorf("%s: %d mappings in the report, %d streamed, %d candidates confirmed", name, len(report.Mappings), streamed, report.CandidatesConfirmed)
			}
			if b.at == api.EventMapping && len(report.Mappings) == 0 {
				t.Errorf("%s: stopped on a mapping event, the report has none", name)
			}
		}
	}

	// A stage that fails under a live context is the round's failure: the
	// exit must hand the error on, not read it as a finished round.
	r := &round{ctx: context.Background(), report: &Report{}}
	boom := errors.New("stage failed")
	if stop, err := r.settle(boom); !stop || err != boom || r.report.TimedOut || r.report.Cancelled {
		t.Errorf("stage error under a live context: stop=%v err=%v report=%+v", stop, err, r.report)
	}
	if stop, err := r.settle(nil); stop || err != nil {
		t.Errorf("no error under a live context: stop=%v err=%v", stop, err)
	}
}

// previewHook runs the round on the columnar executor and calls hook before
// the first result preview.
type previewHook struct {
	exec.Executor
	hook func()
}

func (p *previewHook) ExecuteWith(plan exec.Plan, opts exec.ExecOptions) (*exec.Result, error) {
	if p.hook != nil {
		p.hook()
		p.hook = nil
	}
	return p.Executor.ExecuteWith(plan, opts)
}

// TestBudgetBoundsAssembly spends the round's budget while it assembles
// the confirmed mappings, from inside the first result preview: the round
// builds no further mapping and ends as a clean timeout whose report keeps
// the one mapping built before. A caller's cancellation there is the
// round's cancellation.
func TestBudgetBoundsAssembly(t *testing.T) {
	db := smallMondial(t)
	spec := paperSpec(t)
	full, err := NewEngine(db).Discover(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Mappings) < 2 {
		t.Fatalf("the walkthrough confirms %d mappings, the test needs two", len(full.Mappings))
	}
	for _, cause := range []error{sched.ErrBudget, context.Canceled} {
		col, err := colexec.New(db)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancelCause(context.Background())
		e := NewEngineOn(db, &previewHook{Executor: col, hook: func() { cancel(cause) }})
		report, err := e.Discover(ctx, spec, Options{IncludeResults: true})
		cancel(nil)
		if cause == sched.ErrBudget {
			if err != nil || !report.TimedOut || report.Cancelled {
				t.Errorf("budget: err=%v TimedOut=%v Cancelled=%v, want a clean timeout", err, report.TimedOut, report.Cancelled)
			}
		} else if !errors.Is(err, context.Canceled) || !report.Cancelled || report.TimedOut {
			t.Errorf("cancel: err=%v TimedOut=%v Cancelled=%v, want a cancellation", err, report.TimedOut, report.Cancelled)
		}
		if report.Validations != full.Validations || report.CandidatesConfirmed != full.CandidatesConfirmed {
			t.Errorf("%v: %d validations, %d confirmed; the schedule ran to its end with %d and %d", cause,
				report.Validations, report.CandidatesConfirmed, full.Validations, full.CandidatesConfirmed)
		}
		if len(report.Mappings) != 1 || report.Mappings[0].SQL != full.Mappings[0].SQL || report.Mappings[0].Result == nil {
			t.Errorf("%v: %d mappings, want the first, with its preview", cause, len(report.Mappings))
		}
	}
}
