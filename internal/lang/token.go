// Package lang implements the Multiresolution Schema Mapping Language of
// the paper's Figure 1: row-level value constraints (exact keywords,
// disjunctions of possible values, value ranges, comparisons) and
// column-level metadata constraints (data type, column name, min/max value,
// max text length), combined with AND/OR.
//
// The package provides a lexer, a recursive-descent parser, the constraint
// AST, evaluation of value constraints against cell values, evaluation of
// metadata constraints against preprocessed column statistics, and
// conservative feasibility tests used by related-column search.
package lang

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenKind classifies lexer tokens.
type TokenKind uint8

const (
	// TokenEOF marks the end of input.
	TokenEOF TokenKind = iota
	// TokenWord is a bare word (part of a keyword or a field name).
	TokenWord
	// TokenString is a quoted string literal ('...' or "...").
	TokenString
	// TokenNumber is a numeric literal.
	TokenNumber
	// TokenOp is a comparison operator: = == != <> < <= > >=.
	TokenOp
	// TokenAnd is the logical AND (keyword AND or &&).
	TokenAnd
	// TokenOr is the logical OR (keyword OR or ||).
	TokenOr
	// TokenNot is the logical NOT (keyword NOT or !).
	TokenNot
	// TokenLParen and friends are punctuation.
	TokenLParen
	TokenRParen
	TokenLBracket
	TokenRBracket
	TokenComma
)

// String names the token kind.
func (k TokenKind) String() string {
	switch k {
	case TokenEOF:
		return "EOF"
	case TokenWord:
		return "word"
	case TokenString:
		return "string"
	case TokenNumber:
		return "number"
	case TokenOp:
		return "operator"
	case TokenAnd:
		return "AND"
	case TokenOr:
		return "OR"
	case TokenNot:
		return "NOT"
	case TokenLParen:
		return "("
	case TokenRParen:
		return ")"
	case TokenLBracket:
		return "["
	case TokenRBracket:
		return "]"
	case TokenComma:
		return ","
	default:
		return fmt.Sprintf("token(%d)", uint8(k))
	}
}

// Token is one lexical unit with its source position (byte offset).
type Token struct {
	Kind TokenKind
	Text string
	Pos  int
}

// String renders the token for error messages.
func (t Token) String() string {
	if t.Kind == TokenEOF {
		return "end of input"
	}
	return fmt.Sprintf("%s %q", t.Kind, t.Text)
}

// SyntaxError reports a parse failure with position information.
type SyntaxError struct {
	Input string
	Pos   int
	Msg   string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("lang: %s at position %d in %q", e.Msg, e.Pos, e.Input)
}

func errorf(input string, pos int, format string, args ...any) error {
	return &SyntaxError{Input: input, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Lex tokenises a constraint expression. Quoted strings may use single,
// double or typographic quotes (the paper's examples use ‘…’). Runs of
// unquoted words are emitted as individual word tokens; the parser merges
// adjacent words into multi-word keywords such as "Lake Tahoe". A token's
// Pos is the byte offset of its first character in input.
func Lex(input string) ([]Token, error) {
	var toks []Token
	for i := 0; i < len(input); {
		if op, ok := operatorAt(input[i:]); ok {
			toks = append(toks, Token{Kind: op.kind, Text: op.text, Pos: i})
			i += len(op.spell)
			continue
		}
		r, size := utf8.DecodeRuneInString(input[i:])
		switch {
		case unicode.IsSpace(r):
			i += size
		case r == '&':
			return nil, errorf(input, i, "unexpected '&' (use '&&' or AND)")
		case r == '|':
			return nil, errorf(input, i, "unexpected '|' (use '||' or OR)")
		case quoteClosers[r] != "":
			body := input[i+size:]
			end := strings.IndexAny(body, quoteClosers[r])
			if end < 0 {
				return nil, errorf(input, i, "unterminated string literal")
			}
			// Each byte that is not UTF-8 reads as one U+FFFD.
			toks = append(toks, Token{Kind: TokenString, Text: string([]rune(body[:end])), Pos: i})
			_, closer := utf8.DecodeRuneInString(body[end:])
			i += size + end + closer
		case unicode.IsDigit(r) || r == '-' && startsValue(toks) && runeRun(input[i+size:], unicode.IsDigit) > 0:
			end := i + size + runeRun(input[i+size:], func(c rune) bool { return unicode.IsDigit(c) || c == '.' })
			toks = append(toks, Token{Kind: TokenNumber, Text: input[i:end], Pos: i})
			i = end
		default:
			// Bare word: letters, digits, and a few safe punctuation marks.
			end := i + runeRun(input[i:], isWordRune)
			if end == i {
				return nil, errorf(input, i, "unexpected character %q", string(r))
			}
			word := input[i:end]
			kind := TokenWord
			switch strings.ToUpper(word) {
			case "AND":
				kind = TokenAnd
			case "OR":
				kind = TokenOr
			case "NOT":
				kind = TokenNot
			}
			toks = append(toks, Token{Kind: kind, Text: word, Pos: i})
			i = end
		}
	}
	toks = append(toks, Token{Kind: TokenEOF, Pos: len(input)})
	return toks, nil
}

// operator is one operator or punctuation mark: spell is how the input
// writes it, text how its token does ("<>" is "!=").
type operator struct {
	spell, text string
	kind        TokenKind
}

// operators lists them all, a two-character spelling before its
// one-character prefix.
var operators = []operator{
	{"&&", "&&", TokenAnd}, {"||", "||", TokenOr},
	{"!=", "!=", TokenOp}, {"==", "==", TokenOp}, {"<=", "<=", TokenOp}, {"<>", "!=", TokenOp}, {">=", ">=", TokenOp},
	{"!", "!", TokenNot}, {"=", "=", TokenOp}, {"<", "<", TokenOp}, {">", ">", TokenOp},
	{"(", "(", TokenLParen}, {")", ")", TokenRParen}, {"[", "[", TokenLBracket}, {"]", "]", TokenRBracket}, {",", ",", TokenComma},
}

// operatorAt returns the operator s starts with, if any.
func operatorAt(s string) (operator, bool) {
	for _, op := range operators {
		if strings.HasPrefix(s, op.spell) {
			return op, true
		}
	}
	return operator{}, false
}

// quoteClosers maps each opening quote to the quotes that close it.
var quoteClosers = map[rune]string{'\'': "'", '"': `"`, '‘': "’'", '“': "”\""}

// runeRun returns the length in bytes of the longest prefix of s whose runes
// all satisfy ok.
func runeRun(s string, ok func(rune) bool) int {
	for i, r := range s {
		if !ok(r) {
			return i
		}
	}
	return len(s)
}

// startsValue reports whether the next token can begin a value, which is
// the position where a leading '-' should be treated as a numeric sign.
func startsValue(toks []Token) bool {
	if len(toks) == 0 {
		return true
	}
	switch toks[len(toks)-1].Kind {
	case TokenOp, TokenAnd, TokenOr, TokenNot, TokenLParen, TokenLBracket, TokenComma:
		return true
	default:
		return false
	}
}

func isWordRune(r rune) bool {
	if unicode.IsLetter(r) || unicode.IsDigit(r) {
		return true
	}
	switch r {
	case '_', '-', '.', '/', ':', '%', '#', '\'':
		// Apostrophes inside words (O'Brien) are handled by quoting instead;
		// keep them out of bare words to avoid ambiguity with string quotes.
		return r != '\''
	default:
		return false
	}
}
