package discovery

import (
	"context"
	"fmt"
	"testing"

	"prism/internal/colexec"
	"prism/internal/constraint"
	"prism/internal/dataset"
	"prism/internal/exec"
	"prism/internal/mem"
)

// backend is one executor under test: the columnar engine every product
// round runs on, or the mem reference engine reached as a value.
type backend struct {
	name   string
	engine func(db *mem.Database) *Engine
}

// backends lists the executors the equivalence tests sweep; a new executor
// is covered by adding it here.
var backends = []backend{
	{"mem", func(db *mem.Database) *Engine { return NewEngineOn(db, db) }},
	{"columnar", NewEngine},
}

// reportDigest reduces a report to the executor-independent facts two
// backends must agree on: the related columns, the search-space size, the
// validation schedule outcome, the candidate resolutions, and the final
// mappings (SQL, order, and any attached result previews — including their
// row order, which the executors keep identical by construction).
func reportDigest(t *testing.T, r *Report) string {
	t.Helper()
	var b []byte
	add := func(format string, args ...any) { b = fmt.Appendf(b, format+"\n", args...) }
	for ci, refs := range r.Related {
		for _, ref := range refs {
			add("related %d %s", ci, ref)
		}
	}
	add("candidates=%d filters=%d validations=%d implied=%d confirmed=%d pruned=%d timedout=%v",
		r.CandidatesEnumerated, r.FiltersGenerated, r.Validations, r.Implied,
		r.CandidatesConfirmed, r.CandidatesPruned, r.TimedOut)
	for _, m := range r.Mappings {
		add("mapping %s", m.SQL)
		if m.Result != nil {
			for _, row := range m.Result.Rows {
				add("  row %s", row.Key())
			}
		}
	}
	return string(b)
}

// discoverWith runs one round on the given backend and fails the test on a
// round error.
func discoverWith(t *testing.T, db *mem.Database, spec *constraint.Spec, opts Options, b backend) *Report {
	t.Helper()
	report, err := b.engine(db).Discover(context.Background(), spec, opts)
	if err != nil {
		t.Fatalf("Discover on %s: %v", b.name, err)
	}
	return report
}

// TestExecutorEquivalenceAcrossDatasets is the acceptance gate of the
// columnar engine: on every bundled data set, every backend must
// produce the identical mapping set, result previews, and validation
// schedule as the mem reference. The digest includes the validation and
// implication counters.
func TestExecutorEquivalenceAcrossDatasets(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*mem.Database, error)
		spec  func() (*constraint.Spec, error)
	}{
		{
			name: "mondial",
			build: func() (*mem.Database, error) {
				return dataset.Mondial(dataset.MondialConfig{
					Seed: 11, Countries: 4, ProvincesPerCountry: 3, CitiesPerProvince: 2,
					Lakes: 30, Rivers: 15, Mountains: 10,
				})
			},
			spec: func() (*constraint.Spec, error) {
				return constraint.ParseGrid(3,
					[][]string{{"California || Nevada", "Lake Tahoe", ""}},
					[]string{"", "", "DataType=='decimal' AND MinValue>='0'"})
			},
		},
		{
			name:  "imdb",
			build: func() (*mem.Database, error) { return dataset.IMDB(dataset.IMDBConfig{}) },
			spec: func() (*constraint.Spec, error) {
				return constraint.ParseGrid(3,
					[][]string{{"Inception", "Leonardo DiCaprio || Tim Robbins", "[8, 10]"}},
					[]string{"", "", "DataType=='decimal' AND MinValue>='0' AND MaxValue<='10'"})
			},
		},
		{
			name:  "nba",
			build: func() (*mem.Database, error) { return dataset.NBA(dataset.NBAConfig{}) },
			spec: func() (*constraint.Spec, error) {
				return constraint.ParseGrid(3,
					[][]string{{"Los Angeles", "Lakers", "[80, 140]"}},
					[]string{"", "", "DataType=='int' AND MinValue>='0'"})
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			db, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			spec, err := tc.spec()
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{IncludeResults: true, ResultLimit: 5}
			reference := discoverWith(t, db, spec, opts, backends[0])
			if len(reference.Mappings) == 0 {
				t.Fatalf("reference round found no mappings — the fixture is too weak to test equivalence")
			}
			want := reportDigest(t, reference)
			for _, b := range backends[1:] {
				got := reportDigest(t, discoverWith(t, db, spec, opts, b))
				if got != want {
					t.Errorf("executor %q diverges from mem reference:\n--- mem ---\n%s--- %s ---\n%s", b.name, want, b.name, got)
				}
			}
		})
	}
}

// TestExecutorEquivalencePolicies checks that backend choice is orthogonal
// to the scheduling policy: for each policy, all backends agree, counters
// included.
func TestExecutorEquivalencePolicies(t *testing.T) {
	db := smallMondial(t)
	spec := paperSpec(t)
	for _, policy := range []Policy{PolicyBayes, PolicyPathLength, PolicyRandom, PolicyOracle} {
		policy := policy
		t.Run(string(policy), func(t *testing.T) {
			var want string
			for _, b := range backends {
				digest := reportDigest(t, discoverWith(t, db, spec, Options{Policy: policy}, b))
				if want == "" {
					want = digest
				} else if digest != want {
					t.Errorf("executor %q diverges under policy %s", b.name, policy)
				}
			}
		})
	}
}

// TestRoundsRepeatExactly pins that a round is a function of (spec, data,
// options): under every policy, on every backend, twenty rounds at default
// options end with the same validation and implication counts, the same
// cost counters and the same mappings.
func TestRoundsRepeatExactly(t *testing.T) {
	db := smallMondial(t)
	spec := paperSpec(t)
	digest := func(r *Report) string {
		b := fmt.Appendf(nil, "validations=%d implied=%d cost=%+v\n", r.Validations, r.Implied, r.Cost)
		for _, m := range r.Mappings {
			b = fmt.Appendf(b, "mapping %s\n", m.SQL)
		}
		return string(b)
	}
	for _, policy := range []Policy{PolicyBayes, PolicyPathLength, PolicyRandom, PolicyOracle} {
		for _, b := range backends {
			name, e := b.name, b.engine(db)
			var want string
			for round := 0; round < 20; round++ {
				report, err := e.Discover(context.Background(), spec, Options{Policy: policy})
				if err != nil {
					t.Fatalf("%s on %s, round %d: %v", policy, name, round, err)
				}
				if got := digest(report); want == "" {
					want = got
				} else if got != want {
					t.Fatalf("%s on %s: round %d differs from round 0:\n%s--- round 0 ---\n%s", policy, name, round, got, want)
				}
			}
		}
	}
}

// TestEngineExecutorCaching verifies that an engine builds its columnar
// executor once and that NewEngineOn runs on the executor it was handed.
func TestEngineExecutorCaching(t *testing.T) {
	db := smallMondial(t)
	e := NewEngine(db)
	a, err := e.Executor()
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Executor()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("the engine should build its executor once")
	}
	if _, ok := a.(*colexec.Executor); !ok {
		t.Errorf("NewEngine runs on %T, want the columnar engine", a)
	}
	m, err := NewEngineOn(db, db).Executor()
	if err != nil {
		t.Fatal(err)
	}
	if m != exec.Executor(db) {
		t.Errorf("NewEngineOn(db, db) runs on %T, want the database itself", m)
	}
}

// TestEngineSampleRows exercises the sample-row fetch surface.
func TestEngineSampleRows(t *testing.T) {
	e := NewEngine(smallMondial(t))
	rows, err := e.SampleRows("Lake", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	if _, err := e.SampleRows("NoSuchTable", 5); err == nil {
		t.Error("unknown table should fail")
	}
}
