package dataset

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"prism/internal/mem"
	"prism/internal/schema"
	"prism/internal/value"
)

// NBAConfig controls the size of the synthetic NBA-like database.
type NBAConfig struct {
	Seed           int64
	Teams          int
	PlayersPerTeam int
	Games          int
}

// DefaultNBAConfig returns the size used by the demo.
func DefaultNBAConfig() NBAConfig {
	return NBAConfig{Seed: 3, Teams: 16, PlayersPerTeam: 12, Games: 240}
}

func (c NBAConfig) withDefaults() NBAConfig {
	d := DefaultNBAConfig()
	if c.Teams <= 0 {
		c.Teams = d.Teams
	}
	if c.PlayersPerTeam <= 0 {
		c.PlayersPerTeam = d.PlayersPerTeam
	}
	if c.Games <= 0 {
		c.Games = d.Games
	}
	return c
}

func nbaSchema() (*schema.Schema, error) {
	s := schema.New()
	tables := []*schema.Table{
		schema.MustTable("Team",
			schema.Column{Name: "Name", Type: value.Text},
			schema.Column{Name: "City", Type: value.Text},
			schema.Column{Name: "Conference", Type: value.Text},
			schema.Column{Name: "Founded", Type: value.Int},
		),
		schema.MustTable("Player",
			schema.Column{Name: "Name", Type: value.Text},
			schema.Column{Name: "Team", Type: value.Text},
			schema.Column{Name: "Position", Type: value.Text},
			schema.Column{Name: "Height", Type: value.Decimal},
			schema.Column{Name: "PointsPerGame", Type: value.Decimal},
		),
		schema.MustTable("Game",
			schema.Column{Name: "ID", Type: value.Text},
			schema.Column{Name: "HomeTeam", Type: value.Text},
			schema.Column{Name: "AwayTeam", Type: value.Text},
			schema.Column{Name: "HomeScore", Type: value.Int},
			schema.Column{Name: "AwayScore", Type: value.Int},
			schema.Column{Name: "PlayedOn", Type: value.Date},
		),
	}
	for _, t := range tables {
		if err := s.AddTable(t); err != nil {
			return nil, err
		}
	}
	fks := []schema.ForeignKey{
		{From: schema.ColumnRef{Table: "Player", Column: "Team"}, To: schema.ColumnRef{Table: "Team", Column: "Name"}},
		{From: schema.ColumnRef{Table: "Game", Column: "HomeTeam"}, To: schema.ColumnRef{Table: "Team", Column: "Name"}},
		{From: schema.ColumnRef{Table: "Game", Column: "AwayTeam"}, To: schema.ColumnRef{Table: "Team", Column: "Name"}},
	}
	for _, fk := range fks {
		if err := s.AddForeignKey(fk); err != nil {
			return nil, err
		}
	}
	return s, nil
}

var curatedTeams = []struct {
	name, city, conference string
	founded                int64
}{
	{"Lakers", "Los Angeles", "West", 1947},
	{"Warriors", "San Francisco", "West", 1946},
	{"Celtics", "Boston", "East", 1946},
	{"Pistons", "Detroit", "East", 1941},
	{"Bulls", "Chicago", "East", 1966},
	{"Spurs", "San Antonio", "West", 1967},
}

var nbaPositions = []string{"PG", "SG", "SF", "PF", "C"}

// NBA builds the synthetic basketball database, analysed.
func NBA(cfg NBAConfig) (*mem.Database, error) { return analysed(loadNBA(cfg)) }

// loadNBA fills the synthetic basketball database.
func loadNBA(cfg NBAConfig) (*mem.Database, error) {
	cfg = cfg.withDefaults()
	sch, err := nbaSchema()
	if err != nil {
		return nil, err
	}
	db := mem.NewDatabase("nba", sch)
	rng := rand.New(rand.NewSource(cfg.Seed))

	teams := make([]string, 0, cfg.Teams)
	for _, t := range curatedTeams {
		teams = append(teams, t.name)
		if err := db.Insert("Team", value.Tuple{
			value.NewText(t.name), value.NewText(t.city), value.NewText(t.conference), value.NewInt(t.founded),
		}); err != nil {
			return nil, err
		}
	}
	for i := len(teams); i < cfg.Teams; i++ {
		name := fmt.Sprintf("Team %s", spellIndex(i))
		teams = append(teams, name)
		conference := "East"
		if i%2 == 0 {
			conference = "West"
		}
		if err := db.Insert("Team", value.Tuple{
			value.NewText(name),
			value.NewText(fmt.Sprintf("%s City", spellIndex(i))),
			value.NewText(conference),
			value.NewInt(int64(1940 + rng.Intn(60))),
		}); err != nil {
			return nil, err
		}
	}

	for ti, team := range teams {
		for p := 0; p < cfg.PlayersPerTeam; p++ {
			name := fmt.Sprintf("Player %s %s", spellIndex(ti), spellIndex(p))
			if err := db.Insert("Player", value.Tuple{
				value.NewText(name),
				value.NewText(team),
				value.NewText(nbaPositions[p%len(nbaPositions)]),
				value.NewDecimal(1.80 + rng.Float64()*0.40),
				value.NewDecimal(rng.Float64() * 32),
			}); err != nil {
				return nil, err
			}
		}
	}

	season := time.Date(2018, time.October, 16, 0, 0, 0, 0, time.UTC)
	for g := 0; g < cfg.Games; g++ {
		home := teams[rng.Intn(len(teams))]
		away := teams[rng.Intn(len(teams))]
		for strings.EqualFold(home, away) {
			away = teams[rng.Intn(len(teams))]
		}
		if err := db.Insert("Game", value.Tuple{
			value.NewText(fmt.Sprintf("G%05d", g+1)),
			value.NewText(home),
			value.NewText(away),
			value.NewInt(int64(80 + rng.Intn(60))),
			value.NewInt(int64(80 + rng.Intn(60))),
			value.NewDate(season.AddDate(0, 0, g%170)),
		}); err != nil {
			return nil, err
		}
	}

	return db, nil
}

// ByName builds one of the three demo databases ("mondial", "imdb", "nba")
// with its default configuration, analysed; the demo server's Configuration
// section uses it to switch source databases.
func ByName(name string) (*mem.Database, error) { return analysed(load(name)) }

// load fills the named demo database; ByName analyses it.
func load(name string) (*mem.Database, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "mondial":
		return loadMondial(DefaultMondialConfig())
	case "imdb":
		return loadIMDB(DefaultIMDBConfig())
	case "nba":
		return loadNBA(DefaultNBAConfig())
	default:
		return nil, fmt.Errorf("dataset: unknown database %q (want mondial, imdb or nba)", name)
	}
}

// analysed freezes a database a generator has filled (mem.Database.Analyze).
func analysed(db *mem.Database, err error) (*mem.Database, error) {
	if err != nil {
		return nil, err
	}
	db.Analyze()
	return db, nil
}

// Names lists the available demo databases.
func Names() []string { return []string{"mondial", "imdb", "nba"} }
