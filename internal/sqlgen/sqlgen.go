// Package sqlgen renders Prism's Project-Join plans as SQL text — the form
// in which discovered schema mapping queries are shown to the user
// (Figure 4b) — and parses the same PJ subset of SQL back into executable
// plans, so generated queries can be round-tripped and re-run.
package sqlgen

import (
	"fmt"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"

	"prism/internal/exec"
	"prism/internal/schema"
)

// Generate renders a Project-Join plan as a SQL SELECT statement in the
// style the paper displays:
//
//	SELECT geo_lake.Province, Lake.Name, Lake.Area
//	FROM Lake, geo_lake
//	WHERE Lake.Name = geo_lake.Lake
func Generate(p exec.Plan) string {
	var b strings.Builder
	b.Grow(selectSize(p.Project) + fromSize(p))
	writeSelect(&b, p)
	writeFrom(&b, p)
	return b.String()
}

// FromWhere renders the FROM and WHERE clauses of Generate's text for p,
// leading space included: the part of the statement that depends only on
// the join tree, which a caller rendering many plans over one tree renders
// once.
func FromWhere(p exec.Plan) string {
	var b strings.Builder
	b.Grow(fromSize(p))
	writeFrom(&b, p)
	return b.String()
}

// GenerateFrom is Generate of a plan whose FROM and WHERE clauses, from,
// FromWhere has rendered: it writes the SELECT list and appends from, into
// one buffer sized for the whole statement.
func GenerateFrom(p exec.Plan, from string) string {
	var b strings.Builder
	b.Grow(selectSize(p.Project) + len(from))
	writeSelect(&b, p)
	b.WriteString(from)
	return b.String()
}

// selectSize and fromSize size the two parts of a statement: room for the
// keywords, and per identifier its bytes, two quotes and a separator; only
// an identifier with '"' in it can outgrow this.
func selectSize(project []schema.ColumnRef) int {
	size := len("SELECT DISTINCT ")
	for _, c := range project {
		size += len(c.Table) + len(c.Column) + 7
	}
	return size
}

func fromSize(p exec.Plan) int {
	size := len(" FROM  WHERE ")
	for _, t := range p.Tables {
		size += len(t) + 4
	}
	for _, j := range p.Joins {
		size += len(j.Left.Table) + len(j.Left.Column) + len(j.Right.Table) + len(j.Right.Column) + 18
	}
	return size
}

func writeSelect(b *strings.Builder, p exec.Plan) {
	b.WriteString("SELECT ")
	if p.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, c := range p.Project {
		if i > 0 {
			b.WriteString(", ")
		}
		writeRef(b, c)
	}
}

func writeFrom(b *strings.Builder, p exec.Plan) {
	b.WriteString(" FROM ")
	for i, t := range p.Tables {
		if i > 0 {
			b.WriteString(", ")
		}
		writeIdent(b, t)
	}
	if len(p.Joins) > 0 {
		b.WriteString(" WHERE ")
		for i, j := range p.Joins {
			if i > 0 {
				b.WriteString(" AND ")
			}
			writeRef(b, j.Left)
			b.WriteString(" = ")
			writeRef(b, j.Right)
		}
	}
}

func writeRef(b *strings.Builder, r schema.ColumnRef) {
	writeIdent(b, r.Table)
	b.WriteByte('.')
	writeIdent(b, r.Column)
}

// writeIdent writes an identifier, quoted only when necessary (a character
// other than a letter, a digit or '_'), keeping generated SQL close to the
// paper's examples. A quote inside a quoted identifier is doubled.
func writeIdent(b *strings.Builder, s string) {
	if plainIdent(s) {
		b.WriteString(s)
		return
	}
	b.WriteByte('"')
	b.WriteString(strings.ReplaceAll(s, `"`, `""`))
	b.WriteByte('"')
}

// plainIdent reports whether every character of s is a letter, a digit or
// '_'. ASCII is checked byte by byte; from the first byte of 0x80 or above,
// the rest is decoded and checked by the unicode predicates (an invalid byte
// decodes as U+FFFD, which is neither).
func plainIdent(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= utf8.RuneSelf:
			return !strings.ContainsFunc(s[i:], func(r rune) bool { return !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' })
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '_':
		default:
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Parsing the PJ subset of SQL
// ---------------------------------------------------------------------------

// Parse parses a Project-Join SELECT statement of the form produced by
// Generate (SELECT [DISTINCT] cols FROM tables [WHERE equi-join conjuncts])
// and returns the corresponding plan. It validates the plan against the
// schema when one is provided (pass nil to skip validation).
func Parse(sql string, sch *schema.Schema) (exec.Plan, error) {
	toks, err := tokenize(sql)
	if err != nil {
		return exec.Plan{}, err
	}
	p := &sqlParser{toks: toks, input: sql}
	plan, err := p.parseSelect()
	if err != nil {
		return exec.Plan{}, err
	}
	if sch != nil {
		if err := plan.Validate(sch); err != nil {
			return exec.Plan{}, fmt.Errorf("sqlgen: parsed plan invalid: %w", err)
		}
	}
	return plan, nil
}

type sqlToken struct {
	text  string
	upper string
	pos   int
}

func tokenize(sql string) ([]sqlToken, error) {
	var toks []sqlToken
	runes := []rune(sql)
	i := 0
	for i < len(runes) {
		r := runes[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case r == ',' || r == '=' || r == '(' || r == ')' || r == ';' || r == '.':
			toks = append(toks, sqlToken{text: string(r), upper: string(r), pos: i})
			i++
		case r == '"':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < len(runes) {
				if runes[i] == '"' {
					if i+1 < len(runes) && runes[i+1] == '"' {
						sb.WriteRune('"')
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				sb.WriteRune(runes[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sqlgen: unterminated quoted identifier at %d", start)
			}
			toks = append(toks, sqlToken{text: sb.String(), upper: strings.ToUpper(sb.String()), pos: start})
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_':
			start := i
			for i < len(runes) && (unicode.IsLetter(runes[i]) || unicode.IsDigit(runes[i]) || runes[i] == '_' || runes[i] == '.') {
				i++
			}
			text := string(runes[start:i])
			toks = append(toks, sqlToken{text: text, upper: strings.ToUpper(text), pos: start})
		default:
			return nil, fmt.Errorf("sqlgen: unexpected character %q at %d", string(r), i)
		}
	}
	return toks, nil
}

type sqlParser struct {
	toks  []sqlToken
	input string
	pos   int
}

func (p *sqlParser) eof() bool { return p.pos >= len(p.toks) }

func (p *sqlParser) peek() (sqlToken, bool) {
	if p.eof() {
		return sqlToken{}, false
	}
	return p.toks[p.pos], true
}

func (p *sqlParser) next() (sqlToken, error) {
	if p.eof() {
		return sqlToken{}, fmt.Errorf("sqlgen: unexpected end of statement")
	}
	t := p.toks[p.pos]
	p.pos++
	return t, nil
}

func (p *sqlParser) expectKeyword(kw string) error {
	t, err := p.next()
	if err != nil {
		return err
	}
	if t.upper != kw {
		return fmt.Errorf("sqlgen: expected %s, found %q at %d", kw, t.text, t.pos)
	}
	return nil
}

func (p *sqlParser) parseSelect() (exec.Plan, error) {
	var plan exec.Plan
	if err := p.expectKeyword("SELECT"); err != nil {
		return plan, err
	}
	if t, ok := p.peek(); ok && t.upper == "DISTINCT" {
		plan.Distinct = true
		p.pos++
	}
	// Projection list.
	for {
		ref, err := p.parseColumnRef()
		if err != nil {
			return plan, err
		}
		plan.Project = append(plan.Project, ref)
		t, ok := p.peek()
		if ok && t.text == "," {
			p.pos++
			continue
		}
		break
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return plan, err
	}
	seen := make(map[string]bool)
	for {
		t, err := p.next()
		if err != nil {
			return plan, err
		}
		if strings.ContainsAny(t.text, ".,=();") || t.upper == "WHERE" {
			return plan, fmt.Errorf("sqlgen: expected table name, found %q at %d", t.text, t.pos)
		}
		if !seen[strings.ToLower(t.text)] {
			seen[strings.ToLower(t.text)] = true
			plan.Tables = append(plan.Tables, t.text)
		}
		nt, ok := p.peek()
		if ok && nt.text == "," {
			p.pos++
			continue
		}
		break
	}
	if t, ok := p.peek(); ok && t.upper == "WHERE" {
		p.pos++
		for {
			left, err := p.parseColumnRef()
			if err != nil {
				return plan, err
			}
			eq, err := p.next()
			if err != nil {
				return plan, err
			}
			if eq.text != "=" {
				return plan, fmt.Errorf("sqlgen: only equi-join conditions are supported, found %q at %d", eq.text, eq.pos)
			}
			right, err := p.parseColumnRef()
			if err != nil {
				return plan, err
			}
			plan.Joins = append(plan.Joins, exec.JoinEdge{Left: left, Right: right})
			t, ok := p.peek()
			if ok && t.upper == "AND" {
				p.pos++
				continue
			}
			break
		}
	}
	if t, ok := p.peek(); ok && t.text == ";" {
		p.pos++
	}
	if !p.eof() {
		t, _ := p.peek()
		return plan, fmt.Errorf("sqlgen: unexpected trailing token %q at %d", t.text, t.pos)
	}
	return plan, nil
}

func (p *sqlParser) parseColumnRef() (schema.ColumnRef, error) {
	t, err := p.next()
	if err != nil {
		return schema.ColumnRef{}, err
	}
	text := t.text
	// Common unquoted case: one token "Table.Column".
	if strings.Contains(text, ".") && !strings.HasPrefix(text, ".") && !strings.HasSuffix(text, ".") {
		parts := strings.SplitN(text, ".", 2)
		return schema.ColumnRef{Table: parts[0], Column: parts[1]}, nil
	}
	// Quoted variants: the table, the dot and the column arrive as separate
	// tokens ("geo lake" . Province, Lake . "Pro vince", or Lake. "x").
	table := strings.TrimSuffix(text, ".")
	if table == "" || strings.Contains(table, ".") {
		return schema.ColumnRef{}, fmt.Errorf("sqlgen: expected table.column, found %q at %d", t.text, t.pos)
	}
	if !strings.HasSuffix(text, ".") {
		dot, err := p.next()
		if err != nil {
			return schema.ColumnRef{}, err
		}
		if dot.text != "." {
			return schema.ColumnRef{}, fmt.Errorf("sqlgen: expected '.', found %q at %d", dot.text, dot.pos)
		}
	}
	col, err := p.next()
	if err != nil {
		return schema.ColumnRef{}, err
	}
	if col.text == "" || strings.ContainsAny(col.text, ".,=();") {
		return schema.ColumnRef{}, fmt.Errorf("sqlgen: expected column name, found %q at %d", col.text, col.pos)
	}
	return schema.ColumnRef{Table: table, Column: col.text}, nil
}

// Normalize canonicalises a generated SQL string so that logically identical
// PJ queries compare equal: projection order is preserved (it is the target
// schema order) but table lists and join conjuncts are sorted.
func Normalize(sql string, sch *schema.Schema) (string, error) {
	plan, err := Parse(sql, sch)
	if err != nil {
		return "", err
	}
	slices.Sort(plan.Tables)
	slices.SortFunc(plan.Joins, func(a, b exec.JoinEdge) int {
		return strings.Compare(schema.EdgeSignature(a.Left, a.Right), schema.EdgeSignature(b.Left, b.Right))
	})
	for i, j := range plan.Joins {
		if j.Right.String() < j.Left.String() {
			plan.Joins[i] = exec.JoinEdge{Left: j.Right, Right: j.Left}
		}
	}
	return Generate(plan), nil
}
