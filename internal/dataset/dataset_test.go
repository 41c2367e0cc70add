package dataset

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"prism/internal/exec"
	"prism/internal/mem"
	"prism/internal/schema"
	"prism/internal/value"
)

func TestMondialDefaults(t *testing.T) {
	db, err := Mondial(MondialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !frozen(db) {
		t.Error("generated database should be analyzed")
	}
	cfg := DefaultMondialConfig()
	if got := db.NumRows("Lake"); got != cfg.Lakes {
		t.Errorf("lakes = %d, want %d", got, cfg.Lakes)
	}
	if got := db.NumRows("Country"); got != cfg.Countries {
		t.Errorf("countries = %d, want %d", got, cfg.Countries)
	}
	// Curated provinces + generated ones.
	wantProv := len(curatedProvinces) + cfg.Countries*cfg.ProvincesPerCountry
	if got := db.NumRows("Province"); got != wantProv {
		t.Errorf("provinces = %d, want %d", got, wantProv)
	}
	if db.NumRows("geo_lake") < cfg.Lakes {
		t.Error("every lake should have at least one geo_lake link")
	}
	if db.NumRows("City") == 0 || db.NumRows("River") == 0 || db.NumRows("Mountain") == 0 {
		t.Error("cities, rivers and mountains should be populated")
	}
}

func TestMondialCuratedRows(t *testing.T) {
	db, err := Mondial(DefaultMondialConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The §3 walkthrough requires these exact rows.
	if !db.ColumnHasKeyword(schema.ColumnRef{Table: "Lake", Column: "Name"}, "Lake Tahoe") {
		t.Error("Lake Tahoe missing")
	}
	if !db.ColumnHasKeyword(schema.ColumnRef{Table: "geo_lake", Column: "Province"}, "California") {
		t.Error("California missing from geo_lake")
	}
	if !db.ColumnHasKeyword(schema.ColumnRef{Table: "geo_lake", Column: "Province"}, "Nevada") {
		t.Error("Nevada missing from geo_lake")
	}
	st, ok := db.Stats(schema.ColumnRef{Table: "Lake", Column: "Area"})
	if !ok || st.Type != value.Decimal {
		t.Fatalf("Lake.Area stats: %+v %v", st, ok)
	}
	if min, _ := st.Min.Float(); min < 0 {
		t.Error("lake areas should be non-negative (MinValue >= 0 must hold)")
	}
	// The desired Table 1 query must be executable.
	plan := exec.Plan{
		Tables: []string{"Lake", "geo_lake"},
		Joins: []exec.JoinEdge{{
			Left:  schema.ColumnRef{Table: "Lake", Column: "Name"},
			Right: schema.ColumnRef{Table: "geo_lake", Column: "Lake"},
		}},
		Project: []schema.ColumnRef{
			{Table: "geo_lake", Column: "Province"},
			{Table: "Lake", Column: "Name"},
			{Table: "Lake", Column: "Area"},
		},
	}
	res, err := db.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	want := value.Tuple{value.NewText("California"), value.NewText("Lake Tahoe"), value.NewDecimal(497)}
	if !res.Contains(want) {
		t.Error("Table 1 row (California, Lake Tahoe, 497) missing from the join")
	}
}

func TestMondialDeterminism(t *testing.T) {
	cfg := MondialConfig{Seed: 42, Countries: 4, ProvincesPerCountry: 2, CitiesPerProvince: 2, Lakes: 20, Rivers: 10, Mountains: 10}
	a, err := Mondial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mondial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range a.Schema().Tables() {
		table := tab.Name
		ra, _ := a.SampleRows(table, 0)
		rb, _ := b.SampleRows(table, 0)
		if len(ra) != len(rb) {
			t.Fatalf("table %s: row counts differ (%d vs %d)", table, len(ra), len(rb))
		}
		for i := range ra {
			if !ra[i].Equal(rb[i]) {
				t.Fatalf("table %s row %d differs: %v vs %v", table, i, ra[i], rb[i])
			}
		}
	}
	// A different seed must change the generated part.
	c, err := Mondial(MondialConfig{Seed: 43, Countries: 4, ProvincesPerCountry: 2, CitiesPerProvince: 2, Lakes: 20, Rivers: 10, Mountains: 10})
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := a.SampleRows("Lake", 0)
	rc, _ := c.SampleRows("Lake", 0)
	same := true
	for i := range ra {
		if !ra[i].Equal(rc[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should produce different generated rows")
	}
}

func TestMondialScaling(t *testing.T) {
	small, err := Mondial(MondialConfig{Seed: 1, Countries: 3, ProvincesPerCountry: 2, CitiesPerProvince: 1, Lakes: 10, Rivers: 5, Mountains: 5})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Mondial(MondialConfig{Seed: 1, Countries: 6, ProvincesPerCountry: 4, CitiesPerProvince: 2, Lakes: 40, Rivers: 10, Mountains: 10})
	if err != nil {
		t.Fatal(err)
	}
	if totalRows(small) >= totalRows(big) {
		t.Errorf("bigger config should give more rows: %d vs %d", totalRows(small), totalRows(big))
	}
}

func TestIMDB(t *testing.T) {
	db, err := IMDB(IMDBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultIMDBConfig()
	if db.NumRows("Movie") != cfg.Movies {
		t.Errorf("movies = %d, want %d", db.NumRows("Movie"), cfg.Movies)
	}
	if db.NumRows("Person") != cfg.People {
		t.Errorf("people = %d, want %d", db.NumRows("Person"), cfg.People)
	}
	if db.NumRows("CastRole") == 0 || db.NumRows("MovieGenre") == 0 || db.NumRows("Director") == 0 {
		t.Error("link tables should be populated")
	}
	if !db.ColumnHasKeyword(schema.ColumnRef{Table: "Movie", Column: "Title"}, "Inception") {
		t.Error("curated movie missing")
	}
	// Rating statistics are within the declared range.
	st, _ := db.Stats(schema.ColumnRef{Table: "Movie", Column: "Rating"})
	if max, _ := st.Max.Float(); max > 10 {
		t.Errorf("rating exceeds 10: %v", st.Max)
	}
	// The schema graph joins Movie to Person through CastRole.
	fks := db.Schema().ForeignKeys()
	if len(fks) != 5 {
		t.Errorf("foreign keys = %d", len(fks))
	}
}

func TestNBA(t *testing.T) {
	db, err := NBA(NBAConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultNBAConfig()
	if db.NumRows("Team") != cfg.Teams {
		t.Errorf("teams = %d", db.NumRows("Team"))
	}
	if db.NumRows("Player") != cfg.Teams*cfg.PlayersPerTeam {
		t.Errorf("players = %d", db.NumRows("Player"))
	}
	if db.NumRows("Game") != cfg.Games {
		t.Errorf("games = %d", db.NumRows("Game"))
	}
	if !db.ColumnHasKeyword(schema.ColumnRef{Table: "Team", Column: "Name"}, "Lakers") {
		t.Error("curated team missing")
	}
	// No game pairs a team against itself.
	games, _ := db.SampleRows("Game", 0)
	for _, row := range games {
		if row[1].Equal(row[2]) {
			t.Fatalf("self-game generated: %v", row)
		}
	}
	// Scores stay in a plausible range.
	st, _ := db.Stats(schema.ColumnRef{Table: "Game", Column: "HomeScore"})
	if min, _ := st.Min.Float(); min < 80 {
		t.Errorf("home score below 80: %v", st.Min)
	}
	// Game.PlayedOn is a date column.
	if st, _ := db.Stats(schema.ColumnRef{Table: "Game", Column: "PlayedOn"}); st.Type != value.Date {
		t.Error("PlayedOn should be a date column")
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		db, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if totalRows(db) == 0 {
			t.Errorf("ByName(%q) produced an empty database", name)
		}
	}
	if _, err := ByName("MONDIAL "); err != nil {
		t.Error("ByName should be case/space insensitive")
	}
	if _, err := ByName("oracle"); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestSpellIndexUniqueAndStable(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 200; i++ {
		s := spellIndex(i)
		if s == "" {
			t.Fatal("empty name")
		}
		if seen[s] {
			t.Fatalf("duplicate generated name %q at %d", s, i)
		}
		seen[s] = true
	}
	if spellIndex(3) != spellIndex(3) {
		t.Error("spellIndex should be deterministic")
	}
	if strings.Contains(spellIndex(5), "-") {
		t.Error("small indexes should be single words")
	}
}

func TestSkewedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 100
	counts := make([]int, n)
	for i := 0; i < 20_000; i++ {
		idx := skewedIndex(rng, n)
		if idx < 0 || idx >= n {
			t.Fatalf("index out of range: %d", idx)
		}
		counts[idx]++
	}
	firstHalf, secondHalf := 0, 0
	for i, c := range counts {
		if i < n/2 {
			firstHalf += c
		} else {
			secondHalf += c
		}
	}
	if firstHalf <= secondHalf {
		t.Errorf("distribution should be skewed toward low indexes: %d vs %d", firstHalf, secondHalf)
	}
	if skewedIndex(rng, 1) != 0 || skewedIndex(rng, 0) != 0 {
		t.Error("degenerate sizes should return 0")
	}
}

func BenchmarkMondialGeneration(b *testing.B) {
	cfg := DefaultMondialConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Mondial(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIMDBGeneration(b *testing.B) {
	cfg := DefaultIMDBConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := IMDB(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// totalRows returns the number of rows across db's tables.
func totalRows(db *mem.Database) int {
	n := 0
	for _, t := range db.Schema().Tables() {
		n += db.NumRows(t.Name)
	}
	return n
}

// frozen reports whether db is analysed: whether it refuses writes.
func frozen(db *mem.Database) bool {
	return errors.Is(db.Insert("", nil), mem.ErrFrozen)
}
