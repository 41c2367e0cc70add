package workload

import (
	"strings"
	"testing"

	"prism/internal/dataset"
	"prism/internal/lang"
	"prism/internal/mem"
	"prism/internal/value"
)

func smallMondial(t testing.TB) *mem.Database {
	t.Helper()
	db, err := dataset.Mondial(dataset.MondialConfig{
		Seed: 5, Countries: 4, ProvincesPerCountry: 3, CitiesPerProvince: 2,
		Lakes: 25, Rivers: 15, Mountains: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func newGen(t testing.TB) *Generator {
	t.Helper()
	g, err := NewGenerator(smallMondial(t), 99, MondialGroundTruths())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLevels(t *testing.T) {
	ls := Levels()
	if len(ls) != 5 || ls[0] != LevelExact || ls[len(ls)-1] != LevelMissing {
		t.Errorf("Levels = %v", ls)
	}
}

func TestNewGeneratorValidatesMappings(t *testing.T) {
	g := newGen(t)
	if len(g.Mappings()) != len(MondialGroundTruths()) {
		t.Errorf("expected all %d ground truths usable, got %d", len(MondialGroundTruths()), len(g.Mappings()))
	}
	// On a non-Mondial database, Mondial ground truths do not apply.
	imdb, err := dataset.IMDB(dataset.IMDBConfig{Movies: 20, People: 20, CastPerMovie: 2, GenresPerMovie: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGenerator(imdb, 1, MondialGroundTruths()); err == nil {
		t.Error("no usable ground truths should be an error")
	}
}

func TestGenerateExact(t *testing.T) {
	g := newGen(t)
	cases, err := g.Generate(LevelExact, 6, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 6 {
		t.Fatalf("cases = %d", len(cases))
	}
	for _, tc := range cases {
		if tc.Level != LevelExact || tc.Spec == nil {
			t.Fatalf("bad case %+v", tc)
		}
		if tc.Spec.Resolution() != lang.ResolutionHigh {
			t.Errorf("%s: exact cases should be high resolution, got %v", tc.Name, tc.Spec.Resolution())
		}
		if tc.Spec.NumColumns != len(tc.GroundTruth.Project) {
			t.Errorf("%s: column count mismatch", tc.Name)
		}
		if !strings.Contains(tc.Name, string(LevelExact)) {
			t.Errorf("case name should embed the level: %q", tc.Name)
		}
	}
}

func TestGenerateGroundTruthSatisfiesSpec(t *testing.T) {
	g := newGen(t)
	db := smallMondial(t)
	for _, level := range Levels() {
		cases, err := g.Generate(level, 5, Config{})
		if err != nil {
			t.Fatalf("%s: %v", level, err)
		}
		for _, tc := range cases {
			res, err := db.Execute(tc.GroundTruth)
			if err != nil {
				t.Fatalf("%s: executing ground truth: %v", tc.Name, err)
			}
			if !tc.Spec.MatchesResult(res.Rows) {
				t.Errorf("%s: the ground-truth result must satisfy the generated constraints\n%s", tc.Name, tc.Spec)
			}
		}
	}
}

func TestGenerateDisjunctionAndRange(t *testing.T) {
	g := newGen(t)
	dis, err := g.Generate(LevelDisjunction, 8, Config{LoosenFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	foundOr := false
	for _, tc := range dis {
		for _, s := range tc.Spec.Samples {
			for _, c := range s.Cells {
				if _, ok := c.(lang.Or); ok {
					foundOr = true
				}
			}
		}
	}
	if !foundOr {
		t.Error("disjunction level should produce Or cells")
	}
	rng, err := g.Generate(LevelRange, 8, Config{LoosenFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	foundRange := false
	for _, tc := range rng {
		hasRange := false
		for _, s := range tc.Spec.Samples {
			for _, c := range s.Cells {
				if _, ok := c.(lang.Range); ok {
					foundRange = true
					hasRange = true
				}
			}
		}
		// Only cases with a numeric column can actually carry a range; those
		// must be classified as medium resolution.
		if hasRange && tc.Spec.Resolution() != lang.ResolutionMedium {
			t.Errorf("%s: range cases should be medium resolution", tc.Name)
		}
	}
	if !foundRange {
		t.Error("range level should produce Range cells")
	}
}

func TestGenerateMetadataAndMissing(t *testing.T) {
	g := newGen(t)
	meta, err := g.Generate(LevelMetadata, 6, Config{LoosenFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	foundMeta := false
	for _, tc := range meta {
		for _, m := range tc.Spec.Metadata {
			if m != nil {
				foundMeta = true
			}
		}
	}
	if !foundMeta {
		t.Error("metadata level should attach metadata constraints")
	}
	missing, err := g.Generate(LevelMissing, 6, Config{LoosenFraction: 1, MissingFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range missing {
		dropped := false
		for _, s := range tc.Spec.Samples {
			for _, c := range s.Cells {
				dropped = dropped || c == nil
			}
		}
		if !dropped {
			t.Errorf("%s: missing level should drop cells", tc.Name)
		}
		// The spec still carries at least one constraint (guard).
		constrained := false
		for col := 0; col < tc.Spec.NumColumns; col++ {
			if tc.Spec.ColumnConstrained(col) {
				constrained = true
			}
		}
		if !constrained {
			t.Errorf("%s: spec carries no constraints at all", tc.Name)
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	db := smallMondial(t)
	g1, err := NewGenerator(db, 7, MondialGroundTruths())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(db, 7, MondialGroundTruths())
	if err != nil {
		t.Fatal(err)
	}
	a, err := g1.Generate(LevelDisjunction, 5, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g2.Generate(LevelDisjunction, 5, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Spec.String() != b[i].Spec.String() {
			t.Errorf("case %d differs between identically-seeded generators:\n%s\n%s", i, a[i].Spec, b[i].Spec)
		}
	}
}

func TestGenerateMultipleSamples(t *testing.T) {
	g := newGen(t)
	cases, err := g.Generate(LevelExact, 3, Config{SamplesPerCase: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		if len(tc.Spec.Samples) != 3 {
			t.Errorf("%s: samples = %d", tc.Name, len(tc.Spec.Samples))
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.SamplesPerCase != 1 || c.LoosenFraction != 0.5 || c.RangeWidth != 0.5 || c.MissingFraction != 0.5 {
		t.Errorf("defaults = %+v", c)
	}
	c = Config{LoosenFraction: 2, MissingFraction: -1}.withDefaults()
	if c.LoosenFraction != 0.5 || c.MissingFraction != 0.5 {
		t.Errorf("out-of-range values should reset: %+v", c)
	}
}

func TestRangeCell(t *testing.T) {
	r := rangeCell(value.Parse("100"), 0.5)
	if _, ok := r.(lang.Range); !ok {
		t.Fatalf("expected Range, got %#v", r)
	}
	if !r.Eval(value.Parse("100")) || !r.Eval(value.Parse("149")) || r.Eval(value.Parse("200")) {
		t.Error("range bounds wrong")
	}
	k := rangeCell(value.Parse("California"), 0.5)
	if _, ok := k.(lang.Keyword); !ok {
		t.Errorf("text values should stay keywords, got %#v", k)
	}
	z := rangeCell(value.Parse("0"), 0.5)
	if !z.Eval(value.Parse("0.2")) {
		t.Error("zero values should get an absolute-width range")
	}
}

func BenchmarkGenerateAllLevels(b *testing.B) {
	g, err := NewGenerator(mustMondial(b), 1, MondialGroundTruths())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, level := range Levels() {
			if _, err := g.Generate(level, 3, Config{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func mustMondial(b *testing.B) *mem.Database {
	db, err := dataset.Mondial(dataset.MondialConfig{
		Seed: 5, Countries: 4, ProvincesPerCountry: 3, CitiesPerProvince: 2,
		Lakes: 25, Rivers: 15, Mountains: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	return db
}
