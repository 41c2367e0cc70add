package api

import (
	"encoding/json"
	"testing"

	"prism/internal/constraint"
	"prism/internal/lang"
	"prism/internal/schema"
	"prism/internal/value"
)

// parseGrid builds a constraint.Spec from grid text, failing the test on
// parse errors.
func parseGrid(t *testing.T, cols int, samples [][]string, metadata []string) *constraint.Spec {
	t.Helper()
	sp, err := constraint.ParseGrid(cols, samples, metadata)
	if err != nil {
		t.Fatalf("ParseGrid: %v", err)
	}
	return sp
}

// roundTrip encodes, marshals, unmarshals and decodes the spec.
func roundTrip(t *testing.T, sp *constraint.Spec) *constraint.Spec {
	t.Helper()
	enc, err := EncodeSpec(sp)
	if err != nil {
		t.Fatalf("EncodeSpec: %v", err)
	}
	payload, err := json.Marshal(enc)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var wire Spec
	if err := json.Unmarshal(payload, &wire); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	dec, err := wire.Decode()
	if err != nil {
		t.Fatalf("Decode: %v\nwire: %s", err, payload)
	}
	return dec
}

func TestSpecCodecRoundTrip(t *testing.T) {
	cases := []struct {
		name     string
		cols     int
		samples  [][]string
		metadata []string
	}{
		{"paper walkthrough", 3,
			[][]string{{"California || Nevada", "Lake Tahoe", ""}},
			[]string{"", "", "DataType=='decimal' AND MinValue>='0'"}},
		{"ranges and comparisons", 2,
			[][]string{{"[100, 600]", ">= 10 && <= 20"}, {"!= 0", ""}},
			nil},
		{"quoting and negation", 2,
			[][]string{{"= 'Lake Tahoe'", "NOT (x || y)"}},
			[]string{"ColumnName='Area' OR ColumnName='Size'", "MaxLength<=30"}},
		{"metadata only", 2,
			nil,
			[]string{"TableName='Lake'", "DataType=='int'"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := parseGrid(t, tc.cols, tc.samples, tc.metadata)
			dec := roundTrip(t, sp)
			if got, want := dec.String(), sp.String(); got != want {
				t.Errorf("round trip diverges:\nwant:\n%s\ngot:\n%s", want, got)
			}
			if dec.NumColumns != sp.NumColumns || len(dec.Samples) != len(sp.Samples) {
				t.Errorf("shape changed: %d/%d columns, %d/%d samples",
					dec.NumColumns, sp.NumColumns, len(dec.Samples), len(sp.Samples))
			}
		})
	}
}

// TestSpecCodecEmptyKeyword: prism.Exact("") builds a legal (if useless,
// never-matching) constraint; the codec must round-trip it rather than
// strand a spec that works in-process.
func TestSpecCodecEmptyKeyword(t *testing.T) {
	sp, err := constraint.NewSpec(1, []constraint.SampleConstraint{
		{Cells: []lang.ValueExpr{lang.Keyword{Word: ""}}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec := roundTrip(t, sp)
	if got, want := dec.String(), sp.String(); got != want {
		t.Errorf("round trip diverges: %q vs %q", got, want)
	}
	if dec.Samples[0].Cells[0].Eval(value.NewText("anything")) {
		t.Error("empty keyword must never match")
	}
}

// TestSpecCodecDateTimeConstants round-trips typed date/time constants,
// which only arise from programmatically built specs (the grid parser
// produces them from quoted literals in metadata, not sample cells).
func TestSpecCodecDateTimeConstants(t *testing.T) {
	sp, err := constraint.NewSpec(2, []constraint.SampleConstraint{{
		Cells: []lang.ValueExpr{
			lang.Compare{Op: lang.OpGe, Const: value.NewDateYMD(2020, 1, 2)},
			lang.Range{Lo: value.NewTimeHMS(8, 30, 0), Hi: value.NewTimeHMS(17, 0, 0)},
		},
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec := roundTrip(t, sp)
	if got, want := dec.String(), sp.String(); got != want {
		t.Errorf("round trip diverges:\nwant:\n%s\ngot:\n%s", want, got)
	}
	probe := value.NewDateYMD(2021, 6, 1)
	if !dec.Samples[0].Cells[0].Eval(probe) {
		t.Error("decoded date comparison rejects a later date")
	}
	if dec.Samples[0].Cells[1].Eval(value.NewTimeHMS(7, 0, 0)) {
		t.Error("decoded time range accepts an out-of-range time")
	}
}

// TestSpecCodecPreservesEval spot-checks that a decoded constraint accepts
// and rejects the same values as the original (String equality is the
// canonical check; this guards against a String that hides a semantic
// difference).
func TestSpecCodecPreservesEval(t *testing.T) {
	sp := parseGrid(t, 2, [][]string{{"California || 42", "[1.5, 2.5]"}}, nil)
	dec := roundTrip(t, sp)
	probes := []value.Value{
		value.NewText("California"), value.NewText("Nevada"),
		value.NewInt(42), value.NewDecimal(2.0), value.NewDecimal(3.0),
		value.NullValue,
	}
	for ri, s := range sp.Samples {
		for ci, cell := range s.Cells {
			if cell == nil {
				continue
			}
			got := dec.Samples[ri].Cells[ci]
			for _, p := range probes {
				if cell.Eval(p) != got.Eval(p) {
					t.Errorf("cell (%d,%d) diverges on %s", ri, ci, p)
				}
			}
		}
	}
}

// TestScalarTextRoundTrip covers the text-constant edge cases ParseAs
// would mangle: empty strings, the literal "null", and whitespace.
func TestScalarTextRoundTrip(t *testing.T) {
	for _, s := range []string{"", "null", " 5 ", "Lake Tahoe"} {
		v, err := decodeScalar(&Scalar{Type: "text", Text: s})
		if err != nil {
			t.Fatalf("decodeScalar(%q): %v", s, err)
		}
		if v.Kind() != value.Text || v.Text() != s {
			t.Errorf("text scalar %q decoded to %v (%s)", s, v, v.Kind())
		}
	}
}

func TestSpecDecodeRejectsMalformedNodes(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"unknown value kind", Spec{NumColumns: 1, Samples: [][]*ValueExpr{{{Kind: "regex", Word: "x"}}}}},
		{"compare without constant", Spec{NumColumns: 1, Samples: [][]*ValueExpr{{{Kind: KindCompare, Op: ">="}}}}},
		{"compare with bad op", Spec{NumColumns: 1, Samples: [][]*ValueExpr{{{Kind: KindCompare, Op: "~", Value: &Scalar{Type: "int", Text: "1"}}}}}},
		{"or without terms", Spec{NumColumns: 1, Samples: [][]*ValueExpr{{{Kind: KindOr}}}}},
		{"and with null term", Spec{NumColumns: 1, Samples: [][]*ValueExpr{{{Kind: KindAnd, Terms: []*ValueExpr{nil}}}}}},
		{"bad scalar type", Spec{NumColumns: 1, Samples: [][]*ValueExpr{{{Kind: KindCompare, Op: "=", Value: &Scalar{Type: "blob", Text: "x"}}}}}},
		{"bad scalar text", Spec{NumColumns: 1, Samples: [][]*ValueExpr{{{Kind: KindCompare, Op: "=", Value: &Scalar{Type: "int", Text: "abc"}}}}}},
		{"unknown meta kind", Spec{NumColumns: 1, Metadata: []*MetaExpr{{Kind: "weird"}}}},
		{"bad meta field", Spec{NumColumns: 1, Metadata: []*MetaExpr{{Kind: KindPredicate, Field: "Mood", Op: "=", Value: "x"}}}},
		{"wrong sample arity", Spec{NumColumns: 2, Samples: [][]*ValueExpr{{{Kind: KindKeyword, Word: "x"}}}}},
		{"no constraints at all", Spec{NumColumns: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.spec.Decode(); err == nil {
				t.Error("Decode should fail")
			}
		})
	}
}

// TestEncodeSpecRejectsForeignNodes: the wire codec covers the language's
// closed AST; a caller-implemented expression type must fail loudly, not
// encode as garbage.
type foreignExpr struct{}

func (foreignExpr) Eval(value.Value) bool         { return true }
func (foreignExpr) String() string                { return "foreign" }
func (foreignExpr) Resolution() lang.Resolution   { return lang.ResolutionHigh }
func (foreignExpr) EvalMeta(st schema.Stats) bool { return true }

func TestEncodeSpecRejectsForeignNodes(t *testing.T) {
	sp := &constraint.Spec{
		NumColumns: 1,
		Samples:    []constraint.SampleConstraint{{Cells: []lang.ValueExpr{foreignExpr{}}}},
		Metadata:   make([]lang.MetaExpr, 1),
	}
	if _, err := EncodeSpec(sp); err == nil {
		t.Error("EncodeSpec should reject unknown node types")
	}
}

// FuzzSpecCodec feeds the wire codec bytes from outside the program: JSON is
// unmarshalled into a Spec and decoded. Whatever decodes must survive the
// round trip — EncodeSpec, JSON and Decode again — as the same
// specification, String for String; everything else must be an error, never
// a panic. The seeds are the three bundled walkthrough grids and range,
// date, negation and metadata shapes, encoded.
func FuzzSpecCodec(f *testing.F) {
	seeds := []*constraint.Spec{}
	for _, g := range []struct {
		row, metadata []string
	}{
		{[]string{"California || Nevada", "Lake Tahoe", ""}, []string{"", "", "DataType=='decimal' AND MinValue>='0'"}},
		{[]string{"Inception", "Leonardo DiCaprio || Tim Robbins", "[8, 10]"}, []string{"", "", "DataType=='decimal' AND MinValue>='0' AND MaxValue<='10'"}},
		{[]string{"Los Angeles", "Lakers", "[80, 140]"}, []string{"", "", "DataType=='int' AND MinValue>='0'"}},
		{[]string{"[100, 600]", ">= 10 && <= 20", "!= 0"}, nil},
		{[]string{"= 'Lake Tahoe'", "NOT (x || y)", "[-2.5, 1000]"}, []string{"ColumnName='Area' OR ColumnName='Size'", "MaxLength<=30", ""}},
		{nil, []string{"TableName='Lake'", "DataType=='int'", "MinValue>='0' AND MaxValue<='10'"}},
	} {
		var samples [][]string
		if g.row != nil {
			samples = [][]string{g.row}
		}
		sp, err := constraint.ParseGrid(3, samples, g.metadata)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, sp)
	}
	dated, err := constraint.NewSpec(2, []constraint.SampleConstraint{{Cells: []lang.ValueExpr{
		lang.Compare{Op: lang.OpGe, Const: value.NewDateYMD(2020, 1, 2)},
		lang.Not{Term: lang.Range{Lo: value.NewTimeHMS(8, 30, 0), Hi: value.NewTimeHMS(17, 0, 0)}},
	}}}, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, sp := range append(seeds, dated) {
		enc, err := EncodeSpec(sp)
		if err != nil {
			f.Fatal(err)
		}
		payload, err := json.Marshal(enc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var wire Spec
		if err := json.Unmarshal(payload, &wire); err != nil {
			return
		}
		sp, err := wire.Decode()
		if err != nil {
			return
		}
		enc, err := EncodeSpec(sp)
		if err != nil {
			t.Fatalf("EncodeSpec of a decoded spec: %v\n%s", err, sp)
		}
		again, err := json.Marshal(enc)
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		var back Spec
		if err := json.Unmarshal(again, &back); err != nil {
			t.Fatalf("Unmarshal of %s: %v", again, err)
		}
		dec, err := back.Decode()
		if err != nil {
			t.Fatalf("Decode of the re-encoded spec: %v\nwire: %s", err, again)
		}
		if got, want := dec.String(), sp.String(); got != want {
			t.Fatalf("round trip diverges:\nwant:\n%s\ngot:\n%s", want, got)
		}
	})
}
