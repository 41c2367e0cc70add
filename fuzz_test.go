package prism

// The property-based equivalence fuzzer: random multiresolution constraint
// specifications over every bundled data set must produce identical results
// on every path through the system —
//
//	mem executor ≡ columnar executor ≡ session round ≡ warm session round
//	≡ warm session round over the target columns reversed
//
// comparing the mapping SQL set and order, the result previews, and the
// validation schedule (executor-independent by design). The deterministic
// seed corpus lives in testdata/fuzz/FuzzEquivalence and runs on every
// plain `go test`; `go test -fuzz FuzzEquivalence .` explores beyond it.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"prism/api"
)

// fuzzVocab is what the generator can put into constraint cells, per data
// set: keywords that exist in the synthetic data, keywords that do not
// (exercising failing filters and infeasible columns), and a numeric range.
type fuzzVocab struct {
	name     string
	keywords []string
	lo, hi   int
}

var fuzzVocabs = []fuzzVocab{
	{
		name: "mondial",
		keywords: []string{
			"California", "Nevada", "Lake Tahoe", "Crater Lake", "Oregon",
			"United States", "Atlantis",
		},
		lo: 0, hi: 60000,
	},
	{
		name: "imdb",
		keywords: []string{
			"Inception", "Leonardo DiCaprio", "Tim Robbins", "Drama",
			"The Nonexistent Movie",
		},
		lo: 0, hi: 10,
	},
	{
		name: "nba",
		keywords: []string{
			"Los Angeles", "Lakers", "Boston", "Celtics", "Narnia Knights",
		},
		lo: 0, hi: 200,
	},
}

var fuzzMetadata = []string{
	"",
	"DataType=='text'",
	"DataType=='decimal'",
	"DataType=='int' AND MinValue>='0'",
	"MinValue>='0'",
}

// fuzzEngines builds one reduced-scale engine per bundled data set, once
// per process (fuzz workers are processes; seed-corpus runs share one).
var fuzzEngines = sync.OnceValue(func() map[string]*Engine {
	out := make(map[string]*Engine, 3)
	for _, v := range fuzzVocabs {
		var opts []OpenOption
		if v.name == "mondial" {
			opts = append(opts, WithMondialConfig(tinyMondial()))
		}
		eng, err := Open(v.name, opts...)
		if err != nil {
			panic(fmt.Sprintf("building fuzz engine %s: %v", v.name, err))
		}
		out[v.name] = eng
	}
	return out
})

// fuzzReferenceEngines runs the mem reference engine over each fuzz
// engine's database.
var fuzzReferenceEngines = sync.OnceValue(func() map[string]*Engine {
	out := make(map[string]*Engine, 3)
	for name, eng := range fuzzEngines() {
		out[name] = engineOn(eng.Database(), eng.Database())
	}
	return out
})

// fuzzSnapshotEngines round-trips every fuzz engine through the snapshot
// codec once per process: the snapshot-loaded twin must behave
// byte-identically to its freshly built original on every specification.
var fuzzSnapshotEngines = sync.OnceValue(func() map[string]*Engine {
	out := make(map[string]*Engine, 3)
	for name, eng := range fuzzEngines() {
		var buf bytes.Buffer
		if err := eng.Snapshot(&buf); err != nil {
			panic(fmt.Sprintf("snapshotting fuzz engine %s: %v", name, err))
		}
		loaded, err := ReadSnapshot(&buf)
		if err != nil {
			panic(fmt.Sprintf("loading fuzz snapshot %s: %v", name, err))
		}
		out[name] = loaded
	}
	return out
})

// splitmix64 is the generator's deterministic randomness: the same fuzz
// input always produces the same specification.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// fuzzSpec derives a random-but-deterministic constraint grid.
func fuzzSpec(v fuzzVocab, cols int, rowSeed, cellSeed uint64) (samples [][]string, metadata []string) {
	rng := splitmix64(rowSeed*0x9e3779b9 + cellSeed)
	numRows := 1 + rng.intn(2)
	cell := func() string {
		switch rng.intn(6) {
		case 0, 1: // empty (missing values are the common case in the demo)
			return ""
		case 2:
			return v.keywords[rng.intn(len(v.keywords))]
		case 3:
			a := v.keywords[rng.intn(len(v.keywords))]
			b := v.keywords[rng.intn(len(v.keywords))]
			return a + " || " + b
		case 4:
			lo := v.lo + rng.intn(v.hi-v.lo)
			hi := lo + 1 + rng.intn(v.hi-lo)
			return fmt.Sprintf("[%d, %d]", lo, hi)
		default:
			return fmt.Sprintf(">= %d", v.lo+rng.intn(v.hi-v.lo))
		}
	}
	constrained := false
	for r := 0; r < numRows; r++ {
		row := make([]string, cols)
		for c := range row {
			row[c] = cell()
			if row[c] != "" {
				constrained = true
			}
		}
		samples = append(samples, row)
	}
	if rng.intn(2) == 0 {
		metadata = make([]string, cols)
		for c := range metadata {
			metadata[c] = fuzzMetadata[rng.intn(len(fuzzMetadata))]
			if metadata[c] != "" {
				constrained = true
			}
		}
	}
	if !constrained {
		samples[0][0] = v.keywords[0]
	}
	return samples, metadata
}

// fuzzDigest reduces a report to the facts every execution path must agree
// on: the search space, the validation schedule, and the final mappings
// with their SQL order and preview rows.
func fuzzDigest(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "candidates=%d filters=%d validations=%d implied=%d confirmed=%d pruned=%d\n",
		r.CandidatesEnumerated, r.FiltersGenerated, r.Validations, r.Implied,
		r.CandidatesConfirmed, r.CandidatesPruned)
	fmt.Fprint(&b, mappingsDigest(r))
	return b.String()
}

// mappingsDigest covers only the user-visible outcome (SQL order plus
// previews) — what cached rounds must reproduce even though their
// validation counters legitimately differ.
func mappingsDigest(r *Report) string {
	var b strings.Builder
	for _, m := range r.Mappings {
		fmt.Fprintf(&b, "mapping %s\n", m.SQL)
		if m.Result != nil {
			for _, row := range m.Result.Rows {
				fmt.Fprintf(&b, "  row %s\n", row.Key())
			}
		}
	}
	return b.String()
}

func FuzzEquivalence(f *testing.F) {
	// Hand-picked seeds: per data set, one high-resolution case, one with
	// ranges/disjunctions, one leaning on unknown keywords (failing
	// filters), plus cross-dataset variety. The corpus files in
	// testdata/fuzz/FuzzEquivalence extend these.
	f.Add(byte(0), byte(3), uint64(1), uint64(1))
	f.Add(byte(0), byte(2), uint64(7), uint64(13))
	f.Add(byte(1), byte(3), uint64(2), uint64(5))
	f.Add(byte(1), byte(2), uint64(11), uint64(3))
	f.Add(byte(2), byte(3), uint64(4), uint64(9))
	f.Add(byte(2), byte(4), uint64(6), uint64(17))
	f.Add(byte(0), byte(4), uint64(21), uint64(42))

	f.Fuzz(func(t *testing.T, dataset, cols byte, rowSeed, cellSeed uint64) {
		v := fuzzVocabs[int(dataset)%len(fuzzVocabs)]
		numCols := 2 + int(cols)%3 // 2..4 target columns
		samples, metadata := fuzzSpec(v, numCols, rowSeed, cellSeed)
		spec, err := ParseConstraints(numCols, samples, metadata)
		if err != nil {
			t.Skip("generated an unparsable grid")
		}

		// Wire-codec property: every parsable specification must survive
		// the structured JSON encoding (prism/api) byte-identically — the
		// v1 API's structured-spec requests hinge on this.
		encoded, err := api.EncodeSpec(spec)
		if err != nil {
			t.Fatalf("EncodeSpec failed on a parsed spec: %v\nspec:\n%s", err, spec)
		}
		payload, err := json.Marshal(encoded)
		if err != nil {
			t.Fatalf("marshalling encoded spec: %v", err)
		}
		var wire api.Spec
		if err := json.Unmarshal(payload, &wire); err != nil {
			t.Fatalf("unmarshalling encoded spec: %v", err)
		}
		decoded, err := wire.Decode()
		if err != nil {
			t.Fatalf("decoding round-tripped spec: %v\nwire: %s", err, payload)
		}
		if decoded.String() != spec.String() {
			t.Fatalf("spec JSON round trip diverges:\noriginal:\n%s\ndecoded:\n%s\nwire: %s",
				spec, decoded, payload)
		}

		eng := fuzzEngines()[v.name]
		opts := Options{
			MaxTables:      3,
			MaxCandidates:  200,
			IncludeResults: true,
			ResultLimit:    5,
		}

		ctx := context.Background()
		memReport, memErr := fuzzReferenceEngines()[v.name].Discover(ctx, spec, opts)
		colReport, colErr := eng.Discover(ctx, spec, opts)

		// Both executors must agree on whether the round succeeds (errors
		// here are spec-shaped: infeasible columns, no connecting
		// candidates — never executor-specific).
		if (memErr == nil) != (colErr == nil) {
			t.Fatalf("executors disagree on the error:\nmem: %v\ncolumnar: %v\nspec:\n%s",
				memErr, colErr, spec)
		}

		// A session must agree too: cold round populates the cache, warm
		// round answers from it.
		sess := eng.NewSession(ctx)
		defer sess.Close()
		coldReport, coldErr := sess.Discover(ctx, spec, opts)
		if (memErr == nil) != (coldErr == nil) {
			t.Fatalf("session round disagrees on the error:\nmem: %v\nsession: %v\nspec:\n%s",
				memErr, coldErr, spec)
		}
		if memErr != nil {
			return
		}

		want := fuzzDigest(memReport)
		if got := fuzzDigest(colReport); got != want {
			t.Fatalf("columnar diverges from mem:\nspec:\n%s--- mem ---\n%s--- columnar ---\n%s",
				spec, want, got)
		}
		// The cold session round runs the columnar executor with a cache;
		// its full digest (including the validation schedule) must match.
		if got := fuzzDigest(coldReport); got != want {
			t.Fatalf("cold session round diverges from mem:\nspec:\n%s--- mem ---\n%s--- session ---\n%s",
				spec, want, got)
		}
		warmReport, warmErr := sess.Discover(ctx, spec, opts)
		if warmErr != nil {
			t.Fatalf("warm session round failed where cold succeeded: %v", warmErr)
		}
		if warmReport.Validations != 0 {
			t.Fatalf("warm identical round executed %d validations, want 0\nspec:\n%s",
				warmReport.Validations, spec)
		}
		if coldReport.FiltersGenerated > 0 && warmReport.Cache.Hits == 0 {
			t.Fatalf("warm round reported no cache hits over %d filters", coldReport.FiltersGenerated)
		}
		if got := mappingsDigest(warmReport); got != mappingsDigest(memReport) {
			t.Fatalf("warm cached round diverges:\nspec:\n%s--- mem ---\n%s--- warm ---\n%s",
				spec, mappingsDigest(memReport), got)
		}

		// Permuted arm: the same session, the specification with its target
		// columns reversed. An outcome is keyed by its join tree and its
		// constrained (source column, cell) pairs, not by target column
		// numbers, so every outcome is cached already; a wrong hit would
		// show as a mapping that a fresh round over the reversed spec
		// disagrees with.
		revSamples := make([][]string, len(samples))
		for i, row := range samples {
			revSamples[i] = slices.Clone(row)
			slices.Reverse(revSamples[i])
		}
		revMetadata := slices.Clone(metadata)
		slices.Reverse(revMetadata)
		revSpec, err := ParseConstraints(numCols, revSamples, revMetadata)
		if err != nil {
			t.Fatalf("reversing a parsable grid: %v", err)
		}
		permReport, permErr := sess.Discover(ctx, revSpec, opts)
		freshReport, freshErr := eng.Discover(ctx, revSpec, opts)
		if permErr != nil || freshErr != nil {
			t.Fatalf("reversed round failed where the original succeeded: session %v, fresh %v\nspec:\n%s", permErr, freshErr, revSpec)
		}
		// A round cut at MaxCandidates may keep other candidates once the
		// columns are reversed, and so meet filters the first never had.
		if coldReport.CandidatesEnumerated < opts.MaxCandidates && permReport.Validations != 0 {
			t.Fatalf("reversed session round executed %d validations, want 0\nspec:\n%s",
				permReport.Validations, revSpec)
		}
		if got, want := mappingsDigest(permReport), mappingsDigest(freshReport); got != want {
			t.Fatalf("reversed session round diverges from a fresh one:\nspec:\n%s--- fresh ---\n%s--- session ---\n%s",
				revSpec, want, got)
		}

		// Snapshot arm: an engine cold-started from a snapshot of the same
		// database must be indistinguishable — identical mapping SQL set and
		// order, previews, and the full validation schedule.
		snapEng := fuzzSnapshotEngines()[v.name]
		snapReport, snapErr := snapEng.Discover(ctx, spec, opts)
		if snapErr != nil {
			t.Fatalf("snapshot-loaded round failed where fresh succeeded: %v\nspec:\n%s", snapErr, spec)
		}
		if got := fuzzDigest(snapReport); got != want {
			t.Fatalf("snapshot-loaded engine diverges from fresh:\nspec:\n%s--- fresh ---\n%s--- snapshot ---\n%s",
				spec, want, got)
		}
	})
}
