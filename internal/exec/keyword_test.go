package exec_test

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"prism/internal/dataset"
	"prism/internal/difftest"
	"prism/internal/exec"
	"prism/internal/mem"
	"prism/internal/value"
)

// TestKeywordIDsMatchReference: on every column of the bundled databases,
// the corner-case chain, the numeric-view menagerie and the sampled join,
// every value's rendering, its upper-case and blank-padded spellings and
// random strings find the value ids the old keyword table listed, and
// select the same rows.
func TestKeywordIDsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, db := range referenceDatabases(t) {
		for _, st := range db.AllStats() {
			x, err := db.ColumnIndex(st.Ref)
			if err != nil {
				t.Fatal(err)
			}
			probes := exec.KeywordProbes(x, rng)
			exec.CheckKeywordIDs(t, db.Name+" "+st.Ref.String(), x, probes)
			checkMatchesKeyword(t, db.Name+" "+st.Ref.String(), slices.Concat(x.Vals, x.VariantVals), probes)
		}
	}
}

// TestJoinIDMatchesReference: on the bundled databases, the corner-case
// chain, the numeric-view menagerie and the sampled join, every value id of
// every column joins every column of its database as the old lookup
// (a map per number class, a string per text id) joined it.
func TestJoinIDMatchesReference(t *testing.T) {
	for _, db := range referenceDatabases(t) {
		var cols []*exec.ColumnIndex
		ids := 0
		for _, st := range db.AllStats() {
			x, err := db.ColumnIndex(st.Ref)
			if err != nil {
				t.Fatal(err)
			}
			cols, ids = append(cols, x), ids+len(x.Vals)
		}
		exec.CheckJoinIDs(t, db.Name, cols)
		t.Logf("%s: %d ids of %d columns, each joined into every column", db.Name, ids, len(cols))
	}
}

// referenceDatabases returns the analysed databases the reference tests
// run over: the corner-case chain, the numeric-view menagerie, the sampled
// join and the bundled databases.
func referenceDatabases(t *testing.T) []*mem.Database {
	dbs := []*mem.Database{difftest.Quirks(t), difftest.Ranges(t), difftest.BigJoin(t)}
	for _, name := range dataset.Names() {
		db, err := dataset.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	for _, db := range dbs {
		db.Analyze()
	}
	return dbs
}

// checkMatchesKeyword requires Value.MatchesKeyword to answer as it did when
// it compared against the rendering String returns: every value against the
// blank and random probes and the spellings of itself and of the next value.
func checkMatchesKeyword(t *testing.T, label string, vals []value.Value, probes []string) {
	t.Helper()
	const random = 50 // KeywordProbes ends with 50 random strings
	shared := slices.Concat(probes[:4], probes[len(probes)-random:])
	for i, v := range vals {
		kws := shared
		for _, w := range []value.Value{v, vals[(i+1)%len(vals)]} {
			s := w.String()
			kws = append(kws, s, strings.ToUpper(s), " "+s+"\t")
		}
		for _, kw := range kws {
			if got, want := v.MatchesKeyword(kw), renderedMatchesKeyword(v, kw); got != want {
				t.Errorf("%s: %v.MatchesKeyword(%q) = %v, by its rendering %v", label, v, kw, got, want)
			}
		}
	}
}

// renderedMatchesKeyword is Value.MatchesKeyword as it was before it
// rendered onto the stack (without its shape guard, which the value
// package's tests pin to change nothing).
func renderedMatchesKeyword(v value.Value, keyword string) bool {
	if v.IsNull() {
		return false
	}
	kw := strings.TrimSpace(keyword)
	if kw == "" {
		return false
	}
	if f, err := strconv.ParseFloat(kw, 64); err == nil {
		if vf, ok := v.Float(); ok {
			return vf == f
		}
	}
	return strings.EqualFold(strings.TrimSpace(v.String()), kw)
}
