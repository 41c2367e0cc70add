package lang

import (
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"math/rand"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"
)

// referenceLex is Lex as it was before it walked the input by byte offset,
// kept verbatim but for its name: it converts the rune prefix of every token
// to a string to find the token's byte offset, which is quadratic in the
// input. Lex must produce its tokens on valid UTF-8.
//
// Lex tokenises a constraint expression. Quoted strings may use single,
// double or typographic quotes (the paper's examples use ‘…’). Runs of
// unquoted words are emitted as individual word tokens; the parser merges
// adjacent words into multi-word keywords such as "Lake Tahoe".
func referenceLex(input string) ([]Token, error) {
	var toks []Token
	runes := []rune(input)
	i := 0
	n := len(runes)
	byteOffset := func(ri int) int {
		return len(string(runes[:ri]))
	}
	for i < n {
		r := runes[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case r == '(':
			toks = append(toks, Token{Kind: TokenLParen, Text: "(", Pos: byteOffset(i)})
			i++
		case r == ')':
			toks = append(toks, Token{Kind: TokenRParen, Text: ")", Pos: byteOffset(i)})
			i++
		case r == '[':
			toks = append(toks, Token{Kind: TokenLBracket, Text: "[", Pos: byteOffset(i)})
			i++
		case r == ']':
			toks = append(toks, Token{Kind: TokenRBracket, Text: "]", Pos: byteOffset(i)})
			i++
		case r == ',':
			toks = append(toks, Token{Kind: TokenComma, Text: ",", Pos: byteOffset(i)})
			i++
		case r == '&':
			if i+1 < n && runes[i+1] == '&' {
				toks = append(toks, Token{Kind: TokenAnd, Text: "&&", Pos: byteOffset(i)})
				i += 2
			} else {
				return nil, errorf(input, byteOffset(i), "unexpected '&' (use '&&' or AND)")
			}
		case r == '|':
			if i+1 < n && runes[i+1] == '|' {
				toks = append(toks, Token{Kind: TokenOr, Text: "||", Pos: byteOffset(i)})
				i += 2
			} else {
				return nil, errorf(input, byteOffset(i), "unexpected '|' (use '||' or OR)")
			}
		case r == '!':
			if i+1 < n && runes[i+1] == '=' {
				toks = append(toks, Token{Kind: TokenOp, Text: "!=", Pos: byteOffset(i)})
				i += 2
			} else {
				toks = append(toks, Token{Kind: TokenNot, Text: "!", Pos: byteOffset(i)})
				i++
			}
		case r == '=':
			if i+1 < n && runes[i+1] == '=' {
				toks = append(toks, Token{Kind: TokenOp, Text: "==", Pos: byteOffset(i)})
				i += 2
			} else {
				toks = append(toks, Token{Kind: TokenOp, Text: "=", Pos: byteOffset(i)})
				i++
			}
		case r == '<':
			switch {
			case i+1 < n && runes[i+1] == '=':
				toks = append(toks, Token{Kind: TokenOp, Text: "<=", Pos: byteOffset(i)})
				i += 2
			case i+1 < n && runes[i+1] == '>':
				toks = append(toks, Token{Kind: TokenOp, Text: "!=", Pos: byteOffset(i)})
				i += 2
			default:
				toks = append(toks, Token{Kind: TokenOp, Text: "<", Pos: byteOffset(i)})
				i++
			}
		case r == '>':
			if i+1 < n && runes[i+1] == '=' {
				toks = append(toks, Token{Kind: TokenOp, Text: ">=", Pos: byteOffset(i)})
				i += 2
			} else {
				toks = append(toks, Token{Kind: TokenOp, Text: ">", Pos: byteOffset(i)})
				i++
			}
		case r == '\'' || r == '"' || r == '‘' || r == '“':
			closer := map[rune][]rune{
				'\'': {'\''},
				'"':  {'"'},
				'‘':  {'’', '\''},
				'“':  {'”', '"'},
			}[r]
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				c := runes[i]
				isCloser := false
				for _, cl := range closer {
					if c == cl {
						isCloser = true
						break
					}
				}
				if isCloser {
					closed = true
					i++
					break
				}
				sb.WriteRune(c)
				i++
			}
			if !closed {
				return nil, errorf(input, byteOffset(start), "unterminated string literal")
			}
			toks = append(toks, Token{Kind: TokenString, Text: sb.String(), Pos: byteOffset(start)})
		case unicode.IsDigit(r) || (r == '-' && i+1 < n && unicode.IsDigit(runes[i+1]) && startsValue(toks)):
			start := i
			i++
			for i < n && (unicode.IsDigit(runes[i]) || runes[i] == '.') {
				i++
			}
			toks = append(toks, Token{Kind: TokenNumber, Text: string(runes[start:i]), Pos: byteOffset(start)})
		default:
			// Bare word: letters, digits, and a few safe punctuation marks.
			start := i
			for i < n && isWordRune(runes[i]) {
				i++
			}
			if i == start {
				return nil, errorf(input, byteOffset(i), "unexpected character %q", string(r))
			}
			word := string(runes[start:i])
			switch strings.ToUpper(word) {
			case "AND":
				toks = append(toks, Token{Kind: TokenAnd, Text: word, Pos: byteOffset(start)})
			case "OR":
				toks = append(toks, Token{Kind: TokenOr, Text: word, Pos: byteOffset(start)})
			case "NOT":
				toks = append(toks, Token{Kind: TokenNot, Text: word, Pos: byteOffset(start)})
			default:
				toks = append(toks, Token{Kind: TokenWord, Text: word, Pos: byteOffset(start)})
			}
		}
	}
	toks = append(toks, Token{Kind: TokenEOF, Pos: len(input)})
	return toks, nil
}

// lexInputs are the inputs Lex is held to referenceLex on: every string
// literal of this package's tests, the canonical text of every
// FuzzCanonicalTextRoundTrips seed, and random strings over operators,
// quotes (typographic ones too), digits, blanks and multi-byte runes.
func lexInputs(t *testing.T) []string {
	var inputs []string
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := gotoken.NewFileSet()
	for _, name := range files {
		f, err := goparser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == gotoken.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					inputs = append(inputs, s)
				}
			}
			return true
		})
	}
	for kind := 0; kind < 6; kind++ {
		for a := 0; a < 26; a++ {
			data := []byte{byte(kind), byte(a), byte(a / 2), byte(a + 7), byte(kind + a), byte(a * 3), byte(a + 1), byte(a * 5), 1, byte(a)}
			src := &exprSource{data: data}
			inputs = append(inputs, src.expr(3).String())
		}
	}
	alphabet := []string{"a", "Z", "é", "中", "٣", "😀", "0", "7", ".", "-", "_", "/", " ", "\t", "\u00a0",
		"'", `"`, "‘", "’", "“", "”", "&", "|", "!", "=", "<", ">", "(", ")", "[", "]", ",", "AND", "or", "Not", "#", "@"}
	rng := rand.New(rand.NewSource(1))
	for range 5000 {
		var b strings.Builder
		for range rng.Intn(24) {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		inputs = append(inputs, b.String())
	}
	return inputs
}

// TestLexMatchesReference: on valid UTF-8, Lex returns referenceLex's
// tokens — kind, text and byte position — and its errors.
func TestLexMatchesReference(t *testing.T) {
	inputs := lexInputs(t)
	if len(inputs) < 5000 {
		t.Fatalf("only %d inputs", len(inputs))
	}
	for _, in := range inputs {
		got, gotErr := Lex(in)
		want, wantErr := referenceLex(in)
		if !reflect.DeepEqual(got, want) || (gotErr == nil) != (wantErr == nil) ||
			gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Errorf("Lex(%q) = %v, %v; the reference says %v, %v", in, got, gotErr, want, wantErr)
		}
	}
}

// TestLexIsLinear: Lex takes time linear in its input; 64 000 tokens took
// 38 s when every token converted its rune prefix to find its offset.
func TestLexIsLinear(t *testing.T) {
	input := strings.Repeat("a ", 64000)
	start := time.Now()
	toks, err := Lex(input)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("lexing %d bytes took %v", len(input), elapsed)
	}
	if err != nil || len(toks) != 64001 {
		t.Fatalf("%d tokens, err = %v", len(toks), err)
	}
}

// TestLexPositionsAreByteOffsets: on input that is not all UTF-8, Lex
// returns the reference's kinds and texts — a byte that is not UTF-8 reads as
// U+FFFD — and every word and number token's Pos is where its text starts in
// the input, where the reference counted such a byte as the three of U+FFFD.
func TestLexPositionsAreByteOffsets(t *testing.T) {
	for _, in := range lexInputs(t) {
		for _, in := range []string{"\xff" + in, in[:len(in)/2] + "\xe4\xb8 " + in[len(in)/2:]} {
			toks, err := Lex(in)
			want, wantErr := referenceLex(in)
			if (err == nil) != (wantErr == nil) || len(toks) != len(want) {
				t.Errorf("Lex(%q) = %v, %v; the reference says %v, %v", in, toks, err, want, wantErr)
				continue
			}
			for i, tok := range toks {
				if tok.Kind != want[i].Kind || tok.Text != want[i].Text {
					t.Errorf("Lex(%q) token %d = %v, the reference's %v", in, i, tok, want[i])
				}
				if (tok.Kind == TokenWord || tok.Kind == TokenNumber) && !strings.HasPrefix(in[tok.Pos:], tok.Text) {
					t.Errorf("Lex(%q): %v at %d, where the input reads %q", in, tok, tok.Pos, in[tok.Pos:])
				}
			}
		}
	}
}
