package dataset

import (
	"fmt"
	"math/rand"

	"prism/internal/mem"
	"prism/internal/schema"
	"prism/internal/value"
)

// IMDBConfig controls the size of the synthetic IMDB-like database.
type IMDBConfig struct {
	Seed           int64
	Movies         int
	People         int
	CastPerMovie   int
	GenresPerMovie int
}

// DefaultIMDBConfig returns the size used by the demo.
func DefaultIMDBConfig() IMDBConfig {
	return IMDBConfig{Seed: 2, Movies: 200, People: 300, CastPerMovie: 4, GenresPerMovie: 2}
}

func (c IMDBConfig) withDefaults() IMDBConfig {
	d := DefaultIMDBConfig()
	if c.Movies <= 0 {
		c.Movies = d.Movies
	}
	if c.People <= 0 {
		c.People = d.People
	}
	if c.CastPerMovie <= 0 {
		c.CastPerMovie = d.CastPerMovie
	}
	if c.GenresPerMovie <= 0 {
		c.GenresPerMovie = d.GenresPerMovie
	}
	return c
}

func imdbSchema() (*schema.Schema, error) {
	s := schema.New()
	tables := []*schema.Table{
		schema.MustTable("Movie",
			schema.Column{Name: "Title", Type: value.Text},
			schema.Column{Name: "Year", Type: value.Int},
			schema.Column{Name: "Rating", Type: value.Decimal},
			schema.Column{Name: "Runtime", Type: value.Int},
		),
		schema.MustTable("Person",
			schema.Column{Name: "Name", Type: value.Text},
			schema.Column{Name: "BirthYear", Type: value.Int},
			schema.Column{Name: "Country", Type: value.Text},
		),
		schema.MustTable("CastRole",
			schema.Column{Name: "Movie", Type: value.Text},
			schema.Column{Name: "Person", Type: value.Text},
			schema.Column{Name: "Role", Type: value.Text},
		),
		schema.MustTable("MovieGenre",
			schema.Column{Name: "Movie", Type: value.Text},
			schema.Column{Name: "Genre", Type: value.Text},
		),
		schema.MustTable("Director",
			schema.Column{Name: "Movie", Type: value.Text},
			schema.Column{Name: "Person", Type: value.Text},
		),
	}
	for _, t := range tables {
		if err := s.AddTable(t); err != nil {
			return nil, err
		}
	}
	fks := []schema.ForeignKey{
		{From: schema.ColumnRef{Table: "CastRole", Column: "Movie"}, To: schema.ColumnRef{Table: "Movie", Column: "Title"}},
		{From: schema.ColumnRef{Table: "CastRole", Column: "Person"}, To: schema.ColumnRef{Table: "Person", Column: "Name"}},
		{From: schema.ColumnRef{Table: "MovieGenre", Column: "Movie"}, To: schema.ColumnRef{Table: "Movie", Column: "Title"}},
		{From: schema.ColumnRef{Table: "Director", Column: "Movie"}, To: schema.ColumnRef{Table: "Movie", Column: "Title"}},
		{From: schema.ColumnRef{Table: "Director", Column: "Person"}, To: schema.ColumnRef{Table: "Person", Column: "Name"}},
	}
	for _, fk := range fks {
		if err := s.AddForeignKey(fk); err != nil {
			return nil, err
		}
	}
	return s, nil
}

var imdbGenres = []string{"Drama", "Comedy", "Action", "Thriller", "Documentary", "Romance", "Sci-Fi", "Horror"}

var curatedMovies = []struct {
	title   string
	year    int64
	rating  float64
	runtime int64
	genre   string
	lead    string
}{
	{"The Shawshank Redemption", 1994, 9.3, 142, "Drama", "Tim Robbins"},
	{"The Godfather", 1972, 9.2, 175, "Drama", "Marlon Brando"},
	{"Pulp Fiction", 1994, 8.9, 154, "Thriller", "John Travolta"},
	{"Inception", 2010, 8.8, 148, "Sci-Fi", "Leonardo DiCaprio"},
	{"Spirited Away", 2001, 8.6, 125, "Fantasy", "Rumi Hiiragi"},
}

// IMDB builds the synthetic movie database, analysed.
func IMDB(cfg IMDBConfig) (*mem.Database, error) { return analysed(loadIMDB(cfg)) }

// loadIMDB fills the synthetic movie database.
func loadIMDB(cfg IMDBConfig) (*mem.Database, error) {
	cfg = cfg.withDefaults()
	sch, err := imdbSchema()
	if err != nil {
		return nil, err
	}
	db := mem.NewDatabase("imdb", sch)
	rng := rand.New(rand.NewSource(cfg.Seed))

	// People.
	people := make([]string, 0, cfg.People)
	for _, m := range curatedMovies {
		people = append(people, m.lead)
		if err := db.Insert("Person", value.Tuple{
			value.NewText(m.lead), value.NewInt(1930 + int64(rng.Intn(70))), value.NewText("United States"),
		}); err != nil {
			return nil, err
		}
	}
	for i := len(people); i < cfg.People; i++ {
		name := fmt.Sprintf("Actor %s %s", spellIndex(i%26), spellIndex(i/26))
		people = append(people, name)
		if err := db.Insert("Person", value.Tuple{
			value.NewText(name),
			value.NewInt(1930 + int64(rng.Intn(75))),
			value.NewText([]string{"United States", "United Kingdom", "France", "Japan", "India"}[rng.Intn(5)]),
		}); err != nil {
			return nil, err
		}
	}

	// Movies plus link tables.
	addMovie := func(title string, year int64, rating float64, runtime int64, genres []string, cast []string) error {
		if err := db.Insert("Movie", value.Tuple{
			value.NewText(title), value.NewInt(year), value.NewDecimal(rating), value.NewInt(runtime),
		}); err != nil {
			return err
		}
		for _, g := range genres {
			if err := db.Insert("MovieGenre", value.Tuple{value.NewText(title), value.NewText(g)}); err != nil {
				return err
			}
		}
		for i, p := range cast {
			role := "Actor"
			if i == 0 {
				role = "Lead"
			}
			if err := db.Insert("CastRole", value.Tuple{value.NewText(title), value.NewText(p), value.NewText(role)}); err != nil {
				return err
			}
		}
		if len(cast) > 0 {
			if err := db.Insert("Director", value.Tuple{value.NewText(title), value.NewText(cast[len(cast)-1])}); err != nil {
				return err
			}
		}
		return nil
	}

	count := 0
	for _, m := range curatedMovies {
		cast := []string{m.lead, people[skewedIndex(rng, len(people))]}
		if err := addMovie(m.title, m.year, m.rating, m.runtime, []string{m.genre}, cast); err != nil {
			return nil, err
		}
		count++
	}
	for ; count < cfg.Movies; count++ {
		title := fmt.Sprintf("Movie %s %s", spellIndex(count%26), spellIndex(count/26))
		genres := make([]string, 0, cfg.GenresPerMovie)
		for g := 0; g < cfg.GenresPerMovie; g++ {
			genres = append(genres, imdbGenres[rng.Intn(len(imdbGenres))])
		}
		cast := make([]string, 0, cfg.CastPerMovie)
		for c := 0; c < cfg.CastPerMovie; c++ {
			cast = append(cast, people[skewedIndex(rng, len(people))])
		}
		if err := addMovie(title,
			int64(1950+rng.Intn(74)),
			1+rng.Float64()*9,
			int64(70+rng.Intn(120)),
			genres, cast); err != nil {
			return nil, err
		}
	}

	return db, nil
}
