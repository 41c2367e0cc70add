package lang

import (
	"strings"

	"prism/internal/value"
)

// ParseValueConstraint parses one cell of the Sample/Result Constraints
// grid into a value-constraint expression.
//
// Accepted forms (all composable with AND/&&, OR/||, NOT and parentheses):
//
//	Lake Tahoe                 exact keyword (high resolution)
//	California || Nevada       disjunction of keywords
//	>= 100 && <= 600           comparison conjunction
//	[100, 600]                 closed range shorthand
//	= 'Lake Tahoe'             explicit equality with quoting
//	!= 0                       inequality
//
// An empty or all-whitespace cell returns (nil, nil): no constraint on that
// column (a "missing value" in the paper's terminology).
func ParseValueConstraint(input string) (ValueExpr, error) {
	if strings.TrimSpace(input) == "" {
		return nil, nil
	}
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{input: input, toks: toks}
	expr, err := p.parseValueOr()
	if err != nil {
		return nil, err
	}
	if !p.at(TokenEOF) {
		return nil, errorf(input, p.peek().Pos, "unexpected %s", p.peek())
	}
	return expr, nil
}

// ParseMetadataConstraint parses one cell of the Metadata Constraints grid,
// e.g.
//
//	DataType == 'decimal' AND MinValue >= '0'
//	ColumnName = 'Area' OR ColumnName = 'Size'
//	MaxLength <= 30
//
// An empty cell returns (nil, nil): no metadata constraint for that column.
func ParseMetadataConstraint(input string) (MetaExpr, error) {
	if strings.TrimSpace(input) == "" {
		return nil, nil
	}
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{input: input, toks: toks}
	expr, err := p.parseMetaOr()
	if err != nil {
		return nil, err
	}
	if !p.at(TokenEOF) {
		return nil, errorf(input, p.peek().Pos, "unexpected %s", p.peek())
	}
	return expr, nil
}

// ParseSampleRow parses one row of the sample-constraint grid: one cell per
// target column. Empty cells produce nil entries (unconstrained columns).
func ParseSampleRow(cells []string) ([]ValueExpr, error) {
	out := make([]ValueExpr, len(cells))
	for i, cell := range cells {
		e, err := ParseValueConstraint(cell)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// ParseMetadataRow parses the metadata-constraint row: one cell per target
// column, empty cells producing nil entries.
func ParseMetadataRow(cells []string) ([]MetaExpr, error) {
	out := make([]MetaExpr, len(cells))
	for i, cell := range cells {
		e, err := ParseMetadataConstraint(cell)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	input string
	toks  []Token
	pos   int
}

func (p *parser) peek() Token { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) at(k TokenKind) bool {
	return p.toks[p.pos].Kind == k
}

func (p *parser) accept(k TokenKind) (Token, bool) {
	if p.at(k) {
		return p.next(), true
	}
	return Token{}, false
}

// ---------------------------------------------------------------------------
// Value constraints
// ---------------------------------------------------------------------------

func (p *parser) parseValueOr() (ValueExpr, error) {
	left, err := p.parseValueAnd()
	if err != nil {
		return nil, err
	}
	terms := []ValueExpr{left}
	for p.at(TokenOr) {
		p.next()
		right, err := p.parseValueAnd()
		if err != nil {
			return nil, err
		}
		terms = append(terms, right)
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return Or{Terms: terms}, nil
}

func (p *parser) parseValueAnd() (ValueExpr, error) {
	left, err := p.parseValueUnary()
	if err != nil {
		return nil, err
	}
	terms := []ValueExpr{left}
	for p.at(TokenAnd) {
		p.next()
		right, err := p.parseValueUnary()
		if err != nil {
			return nil, err
		}
		terms = append(terms, right)
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return And{Terms: terms}, nil
}

func (p *parser) parseValueUnary() (ValueExpr, error) {
	if _, ok := p.accept(TokenNot); ok {
		term, err := p.parseValueUnary()
		if err != nil {
			return nil, err
		}
		return Not{Term: term}, nil
	}
	return p.parseValuePrimary()
}

func (p *parser) parseValuePrimary() (ValueExpr, error) {
	switch tok := p.peek(); tok.Kind {
	case TokenLParen:
		p.next()
		inner, err := p.parseValueOr()
		if err != nil {
			return nil, err
		}
		if _, ok := p.accept(TokenRParen); !ok {
			return nil, errorf(p.input, p.peek().Pos, "expected ')', found %s", p.peek())
		}
		return inner, nil
	case TokenLBracket:
		return p.parseRange()
	case TokenOp:
		p.next()
		op, err := ParseBinOp(tok.Text)
		if err != nil {
			return nil, errorf(p.input, tok.Pos, "%v", err)
		}
		constVal, err := p.parseConstant()
		if err != nil {
			return nil, err
		}
		if op == OpEq {
			// "= keyword" is the same as a bare keyword; keep Keyword so the
			// keyword indexes can be used uniformly.
			return Keyword{Word: constVal.String()}, nil
		}
		return Compare{Op: op, Const: constVal}, nil
	case TokenWord, TokenNumber, TokenString:
		word, err := p.parseKeywordText()
		if err != nil {
			return nil, err
		}
		return Keyword{Word: word}, nil
	default:
		return nil, errorf(p.input, tok.Pos, "expected a value constraint, found %s", tok)
	}
}

func (p *parser) parseRange() (ValueExpr, error) {
	open := p.next() // '['
	lo, err := p.parseConstant()
	if err != nil {
		return nil, err
	}
	if _, ok := p.accept(TokenComma); !ok {
		return nil, errorf(p.input, p.peek().Pos, "expected ',' in range, found %s", p.peek())
	}
	hi, err := p.parseConstant()
	if err != nil {
		return nil, err
	}
	if _, ok := p.accept(TokenRBracket); !ok {
		return nil, errorf(p.input, p.peek().Pos, "expected ']' closing range, found %s", p.peek())
	}
	if lo.Compare(hi) > 0 {
		return nil, errorf(p.input, open.Pos, "empty range: %s > %s", lo, hi)
	}
	return Range{Lo: lo, Hi: hi}, nil
}

// parseConstant reads a single literal: a quoted string, a number, or a run
// of bare words.
func (p *parser) parseConstant() (value.Value, error) {
	switch tok := p.peek(); tok.Kind {
	case TokenString:
		p.next()
		return value.Parse(tok.Text), nil
	case TokenNumber:
		p.next()
		return value.Parse(tok.Text), nil
	case TokenWord:
		word, err := p.parseKeywordText()
		if err != nil {
			return value.NullValue, err
		}
		return value.Parse(word), nil
	default:
		return value.NullValue, errorf(p.input, tok.Pos, "expected a constant, found %s", tok)
	}
}

// parseKeywordText consumes a maximal run of adjacent word/number/string
// tokens and returns the original source text they span, with whitespace
// collapsed, so multi-word keywords ("Lake Tahoe", "Fort Peck Lake") and
// hyphenated literals ("2019-01-13") survive intact.
func (p *parser) parseKeywordText() (string, error) {
	start := p.peek()
	if start.Kind != TokenWord && start.Kind != TokenNumber && start.Kind != TokenString {
		return "", errorf(p.input, start.Pos, "expected a keyword, found %s", start)
	}
	if start.Kind == TokenString {
		p.next()
		return start.Text, nil
	}
	last := start
	for p.at(TokenWord) || p.at(TokenNumber) {
		last = p.next()
	}
	end := last.Pos + len(last.Text)
	if end > len(p.input) {
		end = len(p.input)
	}
	raw := p.input[start.Pos:end]
	return strings.Join(strings.Fields(raw), " "), nil
}

// ---------------------------------------------------------------------------
// Metadata constraints
// ---------------------------------------------------------------------------

func (p *parser) parseMetaOr() (MetaExpr, error) {
	left, err := p.parseMetaAnd()
	if err != nil {
		return nil, err
	}
	terms := []MetaExpr{left}
	for p.at(TokenOr) {
		p.next()
		right, err := p.parseMetaAnd()
		if err != nil {
			return nil, err
		}
		terms = append(terms, right)
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return MetaOr{Terms: terms}, nil
}

func (p *parser) parseMetaAnd() (MetaExpr, error) {
	left, err := p.parseMetaPrimary()
	if err != nil {
		return nil, err
	}
	terms := []MetaExpr{left}
	for p.at(TokenAnd) {
		p.next()
		right, err := p.parseMetaPrimary()
		if err != nil {
			return nil, err
		}
		terms = append(terms, right)
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return MetaAnd{Terms: terms}, nil
}

func (p *parser) parseMetaPrimary() (MetaExpr, error) {
	if _, ok := p.accept(TokenLParen); ok {
		inner, err := p.parseMetaOr()
		if err != nil {
			return nil, err
		}
		if _, ok := p.accept(TokenRParen); !ok {
			return nil, errorf(p.input, p.peek().Pos, "expected ')', found %s", p.peek())
		}
		return inner, nil
	}
	fieldTok, ok := p.accept(TokenWord)
	if !ok {
		return nil, errorf(p.input, p.peek().Pos, "expected a metadata field, found %s", p.peek())
	}
	field, err := ParseMetaField(fieldTok.Text)
	if err != nil {
		return nil, errorf(p.input, fieldTok.Pos, "%v", err)
	}
	opTok, ok := p.accept(TokenOp)
	if !ok {
		return nil, errorf(p.input, p.peek().Pos, "expected an operator after %s, found %s", field, p.peek())
	}
	op, err := ParseBinOp(opTok.Text)
	if err != nil {
		return nil, errorf(p.input, opTok.Pos, "%v", err)
	}
	constVal, err := p.parseConstant()
	if err != nil {
		return nil, err
	}
	return MetaPredicate{Field: field, Op: op, Const: constVal.String()}, nil
}
