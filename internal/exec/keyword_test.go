package exec_test

import (
	"math/rand"
	"testing"

	"prism/internal/dataset"
	"prism/internal/difftest"
	"prism/internal/exec"
	"prism/internal/mem"
)

// TestKeywordIDsMatchReference: on every column of the bundled databases,
// the corner-case chain, the numeric-view menagerie and the sampled join,
// every value's rendering, its upper-case and blank-padded spellings and
// random strings find the value ids the old keyword table listed, and
// select the same rows.
func TestKeywordIDsMatchReference(t *testing.T) {
	dbs := []*mem.Database{difftest.Quirks(t), difftest.Ranges(t), difftest.BigJoin(t)}
	for _, name := range dataset.Names() {
		db, err := dataset.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	rng := rand.New(rand.NewSource(1))
	for _, db := range dbs {
		db.Analyze()
		for _, st := range db.AllStats() {
			x, err := db.ColumnIndex(st.Ref)
			if err != nil {
				t.Fatal(err)
			}
			exec.CheckKeywordIDs(t, db.Name+" "+st.Ref.String(), x, exec.KeywordProbes(x, rng))
		}
	}
}
