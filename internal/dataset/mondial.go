// Package dataset builds the synthetic source databases the demo and the
// experiments run on. The paper uses the real Mondial geography data set
// plus IMDB and NBA; those dumps are not redistributable here, so the
// generators below reproduce their schema graphs and value distributions
// (skewed memberships, realistic ranges, link tables) deterministically from
// a seed, at configurable scale. The handful of rows the paper's running
// example relies on (Lake Tahoe in California/Nevada, Crater Lake in
// Oregon, Fort Peck Lake, …) are always present so the §3 walkthrough works
// verbatim.
package dataset

import (
	"fmt"
	"math/rand"

	"prism/internal/mem"
	"prism/internal/schema"
	"prism/internal/value"
)

// MondialConfig controls the size of the synthetic Mondial database.
type MondialConfig struct {
	// Seed drives every random choice; equal seeds give identical data.
	Seed int64
	// Countries is the number of countries.
	Countries int
	// ProvincesPerCountry is the number of provinces generated per country.
	ProvincesPerCountry int
	// CitiesPerProvince is the number of cities generated per province.
	CitiesPerProvince int
	// Lakes, Rivers and Mountains are the numbers of geographic features;
	// each is linked to one or more provinces through a geo_* link table.
	Lakes     int
	Rivers    int
	Mountains int
}

// DefaultMondialConfig returns the size used by the examples and tests: a
// few thousand rows, comfortably interactive.
func DefaultMondialConfig() MondialConfig {
	return MondialConfig{
		Seed:                1,
		Countries:           12,
		ProvincesPerCountry: 6,
		CitiesPerProvince:   4,
		Lakes:               120,
		Rivers:              80,
		Mountains:           60,
	}
}

func (c MondialConfig) withDefaults() MondialConfig {
	d := DefaultMondialConfig()
	if c.Countries <= 0 {
		c.Countries = d.Countries
	}
	if c.ProvincesPerCountry <= 0 {
		c.ProvincesPerCountry = d.ProvincesPerCountry
	}
	if c.CitiesPerProvince <= 0 {
		c.CitiesPerProvince = d.CitiesPerProvince
	}
	if c.Lakes <= 0 {
		c.Lakes = d.Lakes
	}
	if c.Rivers <= 0 {
		c.Rivers = d.Rivers
	}
	if c.Mountains <= 0 {
		c.Mountains = d.Mountains
	}
	return c
}

// mondialSchema builds the Mondial-like schema graph.
func mondialSchema() (*schema.Schema, error) {
	s := schema.New()
	tables := []*schema.Table{
		schema.MustTable("Country",
			schema.Column{Name: "Name", Type: value.Text},
			schema.Column{Name: "Code", Type: value.Text},
			schema.Column{Name: "Capital", Type: value.Text},
			schema.Column{Name: "Population", Type: value.Int},
			schema.Column{Name: "Area", Type: value.Decimal},
		),
		schema.MustTable("Province",
			schema.Column{Name: "Name", Type: value.Text},
			schema.Column{Name: "Country", Type: value.Text},
			schema.Column{Name: "Population", Type: value.Int},
			schema.Column{Name: "Area", Type: value.Decimal},
		),
		schema.MustTable("City",
			schema.Column{Name: "Name", Type: value.Text},
			schema.Column{Name: "Province", Type: value.Text},
			schema.Column{Name: "Population", Type: value.Int},
			schema.Column{Name: "Elevation", Type: value.Decimal},
		),
		schema.MustTable("Lake",
			schema.Column{Name: "Name", Type: value.Text},
			schema.Column{Name: "Area", Type: value.Decimal},
			schema.Column{Name: "Depth", Type: value.Decimal},
		),
		schema.MustTable("geo_lake",
			schema.Column{Name: "Lake", Type: value.Text},
			schema.Column{Name: "Province", Type: value.Text},
		),
		schema.MustTable("River",
			schema.Column{Name: "Name", Type: value.Text},
			schema.Column{Name: "Length", Type: value.Decimal},
		),
		schema.MustTable("geo_river",
			schema.Column{Name: "River", Type: value.Text},
			schema.Column{Name: "Province", Type: value.Text},
		),
		schema.MustTable("Mountain",
			schema.Column{Name: "Name", Type: value.Text},
			schema.Column{Name: "Height", Type: value.Decimal},
		),
		schema.MustTable("geo_mountain",
			schema.Column{Name: "Mountain", Type: value.Text},
			schema.Column{Name: "Province", Type: value.Text},
		),
	}
	for _, t := range tables {
		if err := s.AddTable(t); err != nil {
			return nil, err
		}
	}
	fks := []schema.ForeignKey{
		{From: schema.ColumnRef{Table: "Province", Column: "Country"}, To: schema.ColumnRef{Table: "Country", Column: "Name"}},
		{From: schema.ColumnRef{Table: "City", Column: "Province"}, To: schema.ColumnRef{Table: "Province", Column: "Name"}},
		{From: schema.ColumnRef{Table: "geo_lake", Column: "Lake"}, To: schema.ColumnRef{Table: "Lake", Column: "Name"}},
		{From: schema.ColumnRef{Table: "geo_lake", Column: "Province"}, To: schema.ColumnRef{Table: "Province", Column: "Name"}},
		{From: schema.ColumnRef{Table: "geo_river", Column: "River"}, To: schema.ColumnRef{Table: "River", Column: "Name"}},
		{From: schema.ColumnRef{Table: "geo_river", Column: "Province"}, To: schema.ColumnRef{Table: "Province", Column: "Name"}},
		{From: schema.ColumnRef{Table: "geo_mountain", Column: "Mountain"}, To: schema.ColumnRef{Table: "Mountain", Column: "Name"}},
		{From: schema.ColumnRef{Table: "geo_mountain", Column: "Province"}, To: schema.ColumnRef{Table: "Province", Column: "Name"}},
	}
	for _, fk := range fks {
		if err := s.AddForeignKey(fk); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Curated rows that make the paper's walkthrough (§1, §3 and Table 1) work
// verbatim on the synthetic data.
var (
	curatedCountries = []struct {
		name, code, capital string
		population          int64
		area                float64
	}{
		{"United States", "USA", "Washington", 328_000_000, 9_833_520},
		{"Canada", "CAN", "Ottawa", 38_000_000, 9_984_670},
		{"Mexico", "MEX", "Mexico City", 126_000_000, 1_964_375},
	}
	curatedProvinces = []struct {
		name, country string
		population    int64
		area          float64
	}{
		{"California", "United States", 39_500_000, 423_967},
		{"Nevada", "United States", 3_100_000, 286_380},
		{"Oregon", "United States", 4_200_000, 254_799},
		{"Florida", "United States", 21_500_000, 170_312},
		{"Michigan", "United States", 10_000_000, 250_487},
		{"Montana", "United States", 1_100_000, 380_831},
		{"Ontario", "Canada", 14_700_000, 1_076_395},
		{"Jalisco", "Mexico", 8_300_000, 78_588},
	}
	curatedLakes = []struct {
		name      string
		area      float64
		depth     float64
		provinces []string
	}{
		{"Lake Tahoe", 497, 501, []string{"California", "Nevada"}},
		{"Crater Lake", 53.2, 594, []string{"Oregon"}},
		{"Fort Peck Lake", 981, 67, []string{"Florida"}},
		{"Lake Michigan", 58_000, 281, []string{"Michigan"}},
		{"Mono Lake", 180, 48, []string{"California"}},
		{"Pyramid Lake", 487, 103, []string{"Nevada"}},
	}
)

// Mondial builds the synthetic Mondial database, analysed.
func Mondial(cfg MondialConfig) (*mem.Database, error) { return analysed(loadMondial(cfg)) }

// loadMondial fills the synthetic Mondial database: countries, provinces and
// cities here, lakes, rivers and mountains in mondialFeatures.
func loadMondial(cfg MondialConfig) (*mem.Database, error) {
	cfg = cfg.withDefaults()
	sch, err := mondialSchema()
	if err != nil {
		return nil, err
	}
	db := mem.NewDatabase("mondial", sch)
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Countries: curated + generated.
	var countries []string
	for _, c := range curatedCountries {
		countries = append(countries, c.name)
		if err := insert(db, "Country",
			value.NewText(c.name), value.NewText(c.code), value.NewText(c.capital),
			value.NewInt(c.population), value.NewDecimal(c.area)); err != nil {
			return nil, err
		}
	}
	for i := len(countries); i < cfg.Countries; i++ {
		name := fmt.Sprintf("Country %s", spellIndex(i))
		countries = append(countries, name)
		if err := insert(db, "Country",
			value.NewText(name),
			value.NewText(fmt.Sprintf("C%02d", i)),
			value.NewText(name+" City"),
			value.NewInt(int64(1_000_000+rng.Intn(200_000_000))),
			value.NewDecimal(float64(10_000+rng.Intn(9_000_000)))); err != nil {
			return nil, err
		}
	}

	// Provinces: curated + generated, skewed toward the first countries.
	var provinces []string
	for _, p := range curatedProvinces {
		provinces = append(provinces, p.name)
		if err := insert(db, "Province",
			value.NewText(p.name), value.NewText(p.country),
			value.NewInt(p.population), value.NewDecimal(p.area)); err != nil {
			return nil, err
		}
	}
	for _, country := range countries {
		for j := 0; j < cfg.ProvincesPerCountry; j++ {
			name := fmt.Sprintf("%s Province %s", country, spellIndex(j))
			provinces = append(provinces, name)
			if err := insert(db, "Province",
				value.NewText(name), value.NewText(country),
				value.NewInt(int64(50_000+rng.Intn(20_000_000))),
				value.NewDecimal(float64(1_000+rng.Intn(500_000)))); err != nil {
				return nil, err
			}
		}
	}

	// Cities.
	for _, prov := range provinces {
		for j := 0; j < cfg.CitiesPerProvince; j++ {
			name := fmt.Sprintf("%s City %s", prov, spellIndex(j))
			if err := insert(db, "City",
				value.NewText(name), value.NewText(prov),
				value.NewInt(int64(5_000+rng.Intn(5_000_000))),
				value.NewDecimal(float64(rng.Intn(3_000)))); err != nil {
				return nil, err
			}
		}
	}

	if err := mondialFeatures(db, rng, cfg, provinces); err != nil {
		return nil, err
	}
	return db, nil
}

// mondialFeatures fills the lakes, rivers and mountains of loadMondial, each
// linked to provinces.
func mondialFeatures(db *mem.Database, rng *rand.Rand, cfg MondialConfig, provinces []string) error {
	// Lakes: curated + generated, each linked to 1-2 provinces.
	type feature struct {
		table, link, column string
		count               int
	}
	lakeNames := make([]string, 0, cfg.Lakes)
	for _, l := range curatedLakes {
		lakeNames = append(lakeNames, l.name)
		if err := insert(db, "Lake", value.NewText(l.name), value.NewDecimal(l.area), value.NewDecimal(l.depth)); err != nil {
			return err
		}
		for _, p := range l.provinces {
			if err := insert(db, "geo_lake", value.NewText(l.name), value.NewText(p)); err != nil {
				return err
			}
		}
	}
	for i := len(lakeNames); i < cfg.Lakes; i++ {
		name := fmt.Sprintf("Lake %s", spellIndex(i))
		lakeNames = append(lakeNames, name)
		if err := insert(db, "Lake",
			value.NewText(name),
			value.NewDecimal(1+rng.Float64()*5_000),
			value.NewDecimal(1+rng.Float64()*500)); err != nil {
			return err
		}
		links := 1 + rng.Intn(2)
		for l := 0; l < links; l++ {
			prov := provinces[skewedIndex(rng, len(provinces))]
			if err := insert(db, "geo_lake", value.NewText(name), value.NewText(prov)); err != nil {
				return err
			}
		}
	}

	// Rivers and mountains follow the same pattern.
	features := []feature{
		{table: "River", link: "geo_river", column: "River", count: cfg.Rivers},
		{table: "Mountain", link: "geo_mountain", column: "Mountain", count: cfg.Mountains},
	}
	for _, f := range features {
		for i := 0; i < f.count; i++ {
			name := fmt.Sprintf("%s %s", f.table, spellIndex(i))
			metric := value.NewDecimal(10 + rng.Float64()*6_000)
			if err := insert(db, f.table, value.NewText(name), metric); err != nil {
				return err
			}
			links := 1 + rng.Intn(3)
			for l := 0; l < links; l++ {
				prov := provinces[skewedIndex(rng, len(provinces))]
				if err := insert(db, f.link, value.NewText(name), value.NewText(prov)); err != nil {
					return err
				}
			}
		}
	}

	return nil
}

// insert adds a row of vals to the table. A direct call, unlike a closure
// handed from loadMondial to mondialFeatures, keeps vals on the stack.
func insert(db *mem.Database, table string, vals ...value.Value) error {
	return db.Insert(table, value.Tuple(vals))
}

// spellIndex turns 0, 1, 2, … into short pronounceable names (Alpha, Bravo,
// …, Alpha-2, …) so generated text values look realistic and stay unique.
func spellIndex(i int) string {
	words := []string{
		"Alpha", "Bravo", "Charlie", "Delta", "Echo", "Foxtrot", "Golf", "Hotel",
		"India", "Juliett", "Kilo", "Lima", "Mike", "November", "Oscar", "Papa",
		"Quebec", "Romeo", "Sierra", "Tango", "Uniform", "Victor", "Whiskey",
		"Xray", "Yankee", "Zulu",
	}
	if i < len(words) {
		return words[i]
	}
	return fmt.Sprintf("%s-%d", words[i%len(words)], i/len(words)+1)
}

// skewedIndex returns an index in [0, n) with a Zipf-like skew toward the
// low indexes, mimicking how real geographic memberships concentrate on a
// few populous regions.
func skewedIndex(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	// Square the uniform draw: density ∝ 1/(2*sqrt(x)) favouring small x.
	f := rng.Float64()
	idx := int(f * f * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return idx
}
