package dataset

// A minimal, dependency-free, read-only SQLite 3 file-format reader:
// enough of the format (https://sqlite.org/fileformat2.html) to ingest
// ordinary rowid tables into a mem.Database — header validation, table
// b-tree traversal (interior 0x05 / leaf 0x0D pages), record decoding
// with every serial type, payload overflow chains, and CREATE TABLE
// parsing for column names, type affinities and foreign keys.
//
// Deliberately out of scope (rejected with a clear error, never
// misread): WAL-mode files, WITHOUT ROWID tables, non-UTF8 text
// encodings, virtual tables. Indexes, triggers and views are skipped —
// prism builds its own indexes.
//
// The bytes are untrusted: every page number, offset, length and count is
// checked against the file before it is used, and what the reader
// allocates is bounded by a fixed multiple of the file's size (no page is
// walked twice, the payloads add up to less than the file, and the tables
// hold fewer cells than the file has bytes).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"prism/internal/mem"
	"prism/internal/schema"
	"prism/internal/value"
)

// ErrSQLiteCorrupt is wrapped by every LoadSQLite failure that comes from
// bytes contradicting the file format: a page, cell, varint or record out
// of range, a b-tree cycle, payloads longer than the file.
var ErrSQLiteCorrupt = errors.New("corrupt SQLite file")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSQLiteCorrupt, fmt.Sprintf(format, args...))
}

// LoadSQLite reads a SQLite database file into a mem.Database: every
// ordinary table becomes a relation (declared types mapped through
// SQLite's affinity rules onto prism's kinds), REFERENCES clauses become
// schema foreign keys, and the result is analyzed.
//
// SQLite's flexible typing legally stores any value in any column, so a
// declared type is a hint, not a guarantee: a column holding cells that
// cannot be represented as its declared prism kind degrades to Text
// rather than aborting the load.
func LoadSQLite(path string) (*mem.Database, error) {
	if err := faultSQLite.Hit(); err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", path, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	db, err := decodeSQLite(datasetNameForPath(path), data)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", path, err)
	}
	return db, nil
}

// decodeSQLite is LoadSQLite over the file's bytes.
func decodeSQLite(name string, data []byte) (*mem.Database, error) {
	f, err := newSQLiteFile(data)
	if err != nil {
		return nil, err
	}
	tables, err := readSQLiteTables(f, len(data))
	if err != nil {
		return nil, err
	}
	sch, err := sqliteSchema(tables)
	if err != nil {
		return nil, err
	}
	db := mem.NewDatabase(name, sch)
	for _, tl := range tables {
		t, _ := sch.Table(tl.def.name)
		for _, row := range tl.rows {
			tuple := make(value.Tuple, len(row))
			for ci, cell := range row {
				tuple[ci] = cell.toValue(t.Columns[ci].Type)
			}
			if err := db.Insert(tl.def.name, tuple); err != nil {
				return nil, fmt.Errorf("table %s: %w", tl.def.name, err)
			}
		}
	}
	db.Analyze()
	return db, nil
}

// sqliteTableLoad is one ordinary table of a file: its definition and its
// raw cells, the rowid alias already applied.
type sqliteTableLoad struct {
	def  *sqliteTableDef
	rows [][]sqliteValue
}

// readSQLiteTables parses every ordinary table's definition and collects
// its raw cells, so column kinds can be settled against the actual data
// before the schema is built. size is the file's length in bytes.
func readSQLiteTables(f *sqliteFile, size int) ([]*sqliteTableLoad, error) {
	masters, err := f.masterRows()
	if err != nil {
		return nil, err
	}
	var tables []*sqliteTableLoad
	cells := 0
	for _, m := range masters {
		if m.typ != "table" || strings.HasPrefix(m.name, "sqlite_") {
			continue
		}
		def, err := parseCreateTable(m.sql)
		if err != nil {
			return nil, fmt.Errorf("table %s: %w", m.name, err)
		}
		tl := &sqliteTableLoad{def: def}
		err = f.walkTable(m.rootPage, func(rowid int64, record []sqliteValue) error {
			// A stored cell costs at least the byte of its serial type; a
			// table of more cells than the file has bytes is made of cells
			// its records do not store.
			if cells += len(def.columns); cells > size {
				return corrupt("%d cells exceed the file's %d bytes", cells, size)
			}
			row := make([]sqliteValue, len(def.columns))
			for ci := range def.columns {
				if ci < len(record) {
					row[ci] = record[ci]
				}
				// An INTEGER PRIMARY KEY column is the rowid: its record
				// slot is stored as NULL and the b-tree key carries the
				// value.
				if ci == def.rowidColumn && row[ci].kind == sqliteNull {
					row[ci] = sqliteValue{kind: sqliteInt, i: rowid}
				}
			}
			tl.rows = append(tl.rows, row)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("table %s: %w", def.name, err)
		}
		tables = append(tables, tl)
	}
	if len(tables) == 0 {
		return nil, errors.New("no ordinary tables")
	}
	return tables, nil
}

// sqliteSchema builds the schema of the tables: every table first, with
// column kinds settled against its cells, then the foreign keys.
func sqliteSchema(tables []*sqliteTableLoad) (*schema.Schema, error) {
	sch := schema.New()
	for _, tl := range tables {
		cols := make([]schema.Column, len(tl.def.columns))
		for ci, c := range tl.def.columns {
			cols[ci] = schema.Column{Name: c.name, Type: effectiveKind(c.kind, tl.rows, ci)}
		}
		t, err := schema.NewTable(tl.def.name, cols...)
		if err != nil {
			return nil, err
		}
		if tl.def.primaryKey != "" {
			t.PrimaryKey = []string{tl.def.primaryKey}
		}
		if err := sch.AddTable(t); err != nil {
			return nil, err
		}
	}
	// Foreign keys second, once every referenced table exists. Edges
	// referencing tables we skipped (or self-references, which the schema
	// layer does not model) are dropped rather than fatal.
	for _, tl := range tables {
		for _, fk := range tl.def.foreignKeys {
			edge := schema.ForeignKey{
				From: schema.ColumnRef{Table: tl.def.name, Column: fk.fromColumn},
				To:   schema.ColumnRef{Table: fk.toTable, Column: fk.toColumn},
			}
			if _, ok := sch.Table(fk.toTable); !ok || strings.EqualFold(tl.def.name, fk.toTable) {
				continue
			}
			if edge.To.Column == "" {
				if t, _ := sch.Table(fk.toTable); t != nil {
					edge.To.Column = keyColumn(t)
				}
			}
			if err := sch.AddForeignKey(edge); err != nil {
				return nil, err
			}
		}
	}
	return sch, nil
}

// effectiveKind returns declared when every cell in the column can be
// represented as it, Text otherwise (every cell has a Text rendering).
func effectiveKind(declared value.Kind, rows [][]sqliteValue, ci int) value.Kind {
	if declared == value.Text {
		return declared
	}
	for _, row := range rows {
		if v := row[ci].toValue(declared); !v.IsNull() && v.Kind() != declared {
			return value.Text
		}
	}
	return declared
}

// ---------------------------------------------------------------------
// File and page layer

type sqliteFile struct {
	data     []byte
	pageSize int
	usable   int // pageSize minus the per-page reserved region
	// visited are the pages walked so far, by any b-tree: a page belongs to
	// one tree, once. decoded counts the payload bytes read so far, which
	// the file stores once each.
	visited map[int]bool
	decoded int
}

func newSQLiteFile(data []byte) (*sqliteFile, error) {
	if len(data) < 100 || string(data[:16]) != sqliteMagic {
		return nil, fmt.Errorf("not a SQLite 3 database")
	}
	pageSize := int(binary.BigEndian.Uint16(data[16:18]))
	if pageSize == 1 {
		pageSize = 65536
	}
	if pageSize < 512 || pageSize&(pageSize-1) != 0 {
		return nil, corrupt("invalid page size %d", pageSize)
	}
	if data[19] > 1 { // file format read version: 2 = WAL
		return nil, fmt.Errorf("WAL-mode databases are not supported; run PRAGMA journal_mode=DELETE and retry")
	}
	if enc := binary.BigEndian.Uint32(data[56:60]); enc != 1 && enc != 0 {
		return nil, fmt.Errorf("only UTF-8 text encoding is supported (got %d)", enc)
	}
	reserved := int(data[20])
	if len(data)%pageSize != 0 || len(data)/pageSize == 0 {
		return nil, corrupt("truncated database file (%d bytes, page size %d)", len(data), pageSize)
	}
	return &sqliteFile{data: data, pageSize: pageSize, usable: pageSize - reserved}, nil
}

// page returns the raw bytes of the 1-based page number. The bound is a
// page count, so a page number of any size cannot overflow it.
func (f *sqliteFile) page(n int) ([]byte, error) {
	if n < 1 || n > len(f.data)/f.pageSize {
		return nil, corrupt("page %d out of range", n)
	}
	return f.data[(n-1)*f.pageSize : n*f.pageSize], nil
}

// sqliteMasterRow is one row of sqlite_master.
type sqliteMasterRow struct {
	typ, name, tblName string
	rootPage           int
	sql                string
}

func (f *sqliteFile) masterRows(
// sqlite_master is the table b-tree rooted at page 1.
) ([]sqliteMasterRow, error) {
	var out []sqliteMasterRow
	err := f.walkTable(1, func(rowid int64, record []sqliteValue) error {
		if len(record) < 5 {
			return corrupt("sqlite_master row %d has %d columns", rowid, len(record))
		}
		out = append(out, sqliteMasterRow{
			typ:      record[0].text(),
			name:     record[1].text(),
			tblName:  record[2].text(),
			rootPage: int(record[3].i),
			sql:      record[4].text(),
		})
		return nil
	})
	return out, err
}

// walkTable traverses the table b-tree rooted at root, invoking fn for
// every row in rowid order.
func (f *sqliteFile) walkTable(root int, fn func(rowid int64, record []sqliteValue) error) error {
	if f.visited == nil {
		f.visited = make(map[int]bool)
	}
	return f.walkTablePages(root, fn)
}

// walkTablePages is walkTable's recursion. visited fails a corrupt file
// whose interior pages cycle (a page referencing itself or an ancestor) or
// whose trees share a page with a clear error instead of recursing without
// bound or reading a page twice.
func (f *sqliteFile) walkTablePages(root int, fn func(rowid int64, record []sqliteValue) error) error {
	if f.visited[root] {
		return corrupt("page %d revisited: b-tree cycle", root)
	}
	f.visited[root] = true
	page, err := f.page(root)
	if err != nil {
		return err
	}
	// Page 1 hosts the 100-byte database header before its page header.
	hdr := 0
	if root == 1 {
		hdr = 100
	}
	pageType := page[hdr]
	cellCount := int(binary.BigEndian.Uint16(page[hdr+3 : hdr+5]))
	ptrArray := hdr + 8 // the leaf's; an interior page header is 4 bytes longer
	if pageType == 0x05 {
		ptrArray += 4
	}
	if ptrArray+2*cellCount > len(page) {
		return corrupt("page %d: %d cell pointers overflow the page", root, cellCount)
	}
	switch pageType {
	case 0x05: // interior table page
		for i := 0; i < cellCount; i++ {
			off := int(binary.BigEndian.Uint16(page[ptrArray+2*i:]))
			if off+4 > len(page) {
				return corrupt("interior cell %d out of range", i)
			}
			child := int(binary.BigEndian.Uint32(page[off:]))
			if err := f.walkTablePages(child, fn); err != nil {
				return err
			}
		}
		right := int(binary.BigEndian.Uint32(page[hdr+8 : hdr+12]))
		return f.walkTablePages(right, fn)
	case 0x0D: // leaf table page
		for i := 0; i < cellCount; i++ {
			off := int(binary.BigEndian.Uint16(page[ptrArray+2*i:]))
			if off >= len(page) {
				return corrupt("leaf cell %d out of range", i)
			}
			payload, rowid, err := f.leafCell(page, off)
			if err != nil {
				return err
			}
			record, err := decodeRecord(payload)
			if err != nil {
				return fmt.Errorf("rowid %d: %w", rowid, err)
			}
			if err := fn(rowid, record); err != nil {
				return err
			}
		}
		return nil
	case 0x02, 0x0A:
		return nil // index pages: nothing to ingest
	default:
		return fmt.Errorf("unsupported page type 0x%02x (WITHOUT ROWID tables are not supported)", pageType)
	}
}

// leafCell decodes one table-leaf cell at off: payload length varint,
// rowid varint, then the record — possibly continued on overflow pages.
// The file stores every payload byte once, so the payloads of a file add up
// to less than its size: a longer one is corrupt, and is refused before
// anything is allocated for it.
func (f *sqliteFile) leafCell(page []byte, off int) (payload []byte, rowid int64, err error) {
	length, n := sqliteUvarint(page[off:])
	if n == 0 {
		return nil, 0, corrupt("bad payload-length varint")
	}
	if left := len(f.data) - f.decoded; length > uint64(left) {
		return nil, 0, corrupt("cell payload of %d bytes exceeds the %d the file has left", length, left)
	}
	total := int(length)
	f.decoded += total
	off += n
	key, n := sqliteUvarint(page[off:])
	if n == 0 {
		return nil, 0, corrupt("bad rowid varint")
	}
	off += n
	rowid = int64(key)

	u := f.usable
	maxLocal := u - 35
	if total <= maxLocal {
		if off+total > len(page) {
			return nil, 0, corrupt("cell payload out of range")
		}
		return page[off : off+total], rowid, nil
	}
	// Overflowing payload: K bytes stay local, the rest chains through
	// 4-byte-linked overflow pages.
	minLocal := (u-12)*32/255 - 23
	local := minLocal + (total-minLocal)%(u-4)
	if local > maxLocal {
		local = minLocal
	}
	if off+local+4 > len(page) {
		return nil, 0, corrupt("overflow cell out of range")
	}
	out := make([]byte, 0, total)
	out = append(out, page[off:off+local]...)
	next := int(binary.BigEndian.Uint32(page[off+local:]))
	for len(out) < total {
		if next == 0 {
			return nil, 0, corrupt("overflow chain ended %d bytes short", total-len(out))
		}
		op, err := f.page(next)
		if err != nil {
			return nil, 0, err
		}
		chunk := op[4:f.usable]
		if remaining := total - len(out); remaining < len(chunk) {
			chunk = chunk[:remaining]
		}
		out = append(out, chunk...)
		next = int(binary.BigEndian.Uint32(op[:4]))
	}
	return out, rowid, nil
}

// ---------------------------------------------------------------------
// Record (serial type) layer

type sqliteKind uint8

const (
	sqliteNull sqliteKind = iota
	sqliteInt
	sqliteFloat
	sqliteText
	sqliteBlob
)

type sqliteValue struct {
	kind sqliteKind
	i    int64
	f    float64
	s    string
}

func (v sqliteValue) text() string {
	switch v.kind {
	case sqliteText:
		return v.s
	case sqliteInt:
		return fmt.Sprintf("%d", v.i)
	case sqliteFloat:
		return fmt.Sprintf("%g", v.f)
	default:
		return ""
	}
}

// toValue converts one SQLite cell to a prism value of the declared
// kind, falling back to the cell's natural kind when coercion fails.
// Blobs have no prism representation and load as NULL.
func (v sqliteValue) toValue(declared value.Kind) value.Value {
	var natural value.Value
	switch v.kind {
	case sqliteNull, sqliteBlob:
		return value.NullValue
	case sqliteInt:
		natural = value.NewInt(v.i)
	case sqliteFloat:
		natural = value.NewDecimal(v.f)
	case sqliteText:
		natural = value.NewText(v.s)
	}
	if declared == value.Date || declared == value.Time {
		// SQLite stores dates by convention: ISO-ish text
		// ("YYYY-MM-DD[ HH:MM:SS]") or unix-epoch integers. Anything
		// else keeps its natural kind, which degrades the column (see
		// effectiveKind).
		switch v.kind {
		case sqliteText:
			if parsed, err := value.ParseAs(v.s, declared); err == nil {
				return parsed
			}
		case sqliteInt:
			at := time.Unix(v.i, 0).UTC()
			if declared == value.Date {
				return value.NewDate(at)
			}
			return value.NewTime(at)
		}
		return natural
	}
	if coerced, ok := natural.Coerce(declared); ok {
		return coerced
	}
	return natural
}

// decodeRecord parses a record: a header of serial types, then the
// values.
func decodeRecord(payload []byte) ([]sqliteValue, error) {
	headerLen, n := sqliteUvarint(payload)
	if n == 0 || int(headerLen) > len(payload) || int(headerLen) < n {
		return nil, corrupt("bad record header length")
	}
	var serials []uint64
	pos := n
	for pos < int(headerLen) {
		s, sn := sqliteUvarint(payload[pos:])
		if sn == 0 {
			return nil, corrupt("bad serial type varint")
		}
		serials = append(serials, s)
		pos += sn
	}
	out := make([]sqliteValue, len(serials))
	body := payload[headerLen:]
	for i, s := range serials {
		v, size, err := decodeSerial(s, body)
		if err != nil {
			return nil, err
		}
		out[i] = v
		body = body[size:]
	}
	return out, nil
}

func decodeSerial(serial uint64, body []byte) (sqliteValue, int, error) {
	intOf := func(size int) (int64, error) {
		if len(body) < size {
			return 0, corrupt("truncated %d-byte integer", size)
		}
		v := int64(0)
		for _, b := range body[:size] {
			v = v<<8 | int64(b)
		}
		// Sign-extend from the top bit of the encoded width.
		shift := uint(64 - 8*size)
		return v << shift >> shift, nil
	}
	switch serial {
	case 0:
		return sqliteValue{kind: sqliteNull}, 0, nil
	case 1, 2, 3, 4:
		i, err := intOf(int(serial))
		return sqliteValue{kind: sqliteInt, i: i}, int(serial), err
	case 5:
		i, err := intOf(6)
		return sqliteValue{kind: sqliteInt, i: i}, 6, err
	case 6:
		i, err := intOf(8)
		return sqliteValue{kind: sqliteInt, i: i}, 8, err
	case 7:
		if len(body) < 8 {
			return sqliteValue{}, 0, corrupt("truncated float")
		}
		f := math.Float64frombits(binary.BigEndian.Uint64(body))
		return sqliteValue{kind: sqliteFloat, f: f}, 8, nil
	case 8:
		return sqliteValue{kind: sqliteInt, i: 0}, 0, nil
	case 9:
		return sqliteValue{kind: sqliteInt, i: 1}, 0, nil
	case 10, 11:
		return sqliteValue{}, 0, corrupt("reserved serial type %d", serial)
	default:
		if (serial-12)/2 > uint64(len(body)) {
			return sqliteValue{}, 0, corrupt("truncated %d-byte payload", (serial-12)/2)
		}
		size := int(serial-12) / 2
		if serial%2 == 0 {
			return sqliteValue{kind: sqliteBlob}, size, nil
		}
		return sqliteValue{kind: sqliteText, s: string(body[:size])}, size, nil
	}
}

// sqliteUvarint decodes SQLite's big-endian varint (1–9 bytes).
func sqliteUvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < 9 && i < len(b); i++ {
		if i == 8 {
			return v<<8 | uint64(b[i]), 9
		}
		v = v<<7 | uint64(b[i]&0x7f)
		if b[i]&0x80 == 0 {
			return v, i + 1
		}
	}
	return 0, 0
}

// ---------------------------------------------------------------------
// CREATE TABLE parsing

type sqliteColumnDef struct {
	name     string
	declared string // raw declared type, e.g. "INTEGER" or "VARCHAR(80)"
	kind     value.Kind
}

type sqliteForeignKey struct {
	fromColumn string
	toTable    string
	toColumn   string // empty = referenced table's key column
}

type sqliteTableDef struct {
	name        string
	columns     []sqliteColumnDef
	primaryKey  string
	rowidColumn int // index of the INTEGER PRIMARY KEY column, -1 if none
	foreignKeys []sqliteForeignKey
}

// parseCreateTable extracts column names, affinities and foreign keys
// from a CREATE TABLE statement as stored in sqlite_master.
func parseCreateTable(sql string) (*sqliteTableDef, error) {
	if strings.Contains(strings.ToUpper(sql), "WITHOUT ROWID") {
		return nil, fmt.Errorf("WITHOUT ROWID tables are not supported")
	}
	open := strings.IndexByte(sql, '(')
	close := strings.LastIndexByte(sql, ')')
	if open < 0 || close <= open {
		return nil, fmt.Errorf("unparsable CREATE TABLE: %q", sql)
	}
	head := tokenizeSQLite(sql[:open])
	if len(head) < 3 || !strings.EqualFold(head[0], "CREATE") {
		return nil, fmt.Errorf("unparsable CREATE TABLE: %q", sql)
	}
	def := &sqliteTableDef{name: unquoteSQLiteIdent(head[len(head)-1]), rowidColumn: -1}

	for _, item := range splitTopLevel(sql[open+1 : close]) {
		tokens := tokenizeSQLite(item)
		if len(tokens) == 0 {
			continue
		}
		switch strings.ToUpper(tokens[0]) {
		case "PRIMARY", "UNIQUE", "CHECK", "CONSTRAINT":
			// Table-level constraints: PRIMARY KEY(col) records the key.
			if pk := extractParenList(item); len(pk) == 1 && strings.EqualFold(tokens[0], "PRIMARY") {
				def.primaryKey = pk[0]
				def.markRowidColumn(pk[0])
			}
			continue
		case "FOREIGN":
			// FOREIGN KEY (col) REFERENCES tbl(col)
			cols := extractParenList(item)
			refTable, refCol := parseReferences(tokens)
			if len(cols) == 1 && refTable != "" {
				def.foreignKeys = append(def.foreignKeys, sqliteForeignKey{
					fromColumn: cols[0], toTable: refTable, toColumn: refCol,
				})
			}
			continue
		}

		// A column definition: name [type tokens...] [constraints...]
		col := sqliteColumnDef{name: unquoteSQLiteIdent(tokens[0])}
		typeTokens, rest := splitColumnType(tokens[1:])
		col.declared = strings.Join(typeTokens, " ")
		col.kind = affinityKind(col.declared)
		upper := strings.ToUpper(strings.Join(rest, " "))
		if strings.Contains(upper, "PRIMARY KEY") {
			def.primaryKey = col.name
			// Only a column declared exactly INTEGER aliases the rowid;
			// INT, BIGINT etc. are ordinary columns that may legally hold
			// NULL, which must not be replaced by the b-tree key.
			if strings.EqualFold(col.declared, "INTEGER") {
				def.rowidColumn = len(def.columns)
			}
		}
		if refTable, refCol := parseReferences(rest); refTable != "" {
			def.foreignKeys = append(def.foreignKeys, sqliteForeignKey{
				fromColumn: col.name, toTable: refTable, toColumn: refCol,
			})
		}
		def.columns = append(def.columns, col)
	}
	if len(def.columns) == 0 {
		return nil, fmt.Errorf("CREATE TABLE with no columns: %q", sql)
	}
	return def, nil
}

// markRowidColumn resolves a table-level PRIMARY KEY(col) to the rowid
// alias when the named column's declared type is exactly INTEGER —
// SQLite's rule; other integer-affinity spellings stay real columns.
func (d *sqliteTableDef) markRowidColumn(col string) {
	for i, c := range d.columns {
		if strings.EqualFold(c.name, col) && strings.EqualFold(c.declared, "INTEGER") {
			d.rowidColumn = i
		}
	}
}

// splitColumnType takes the tokens after a column name and returns the
// leading type tokens (up to the first constraint keyword) and the rest.
func splitColumnType(tokens []string) (typeTokens, rest []string) {
	constraintKeywords := map[string]bool{
		"PRIMARY": true, "NOT": true, "NULL": true, "UNIQUE": true,
		"CHECK": true, "DEFAULT": true, "COLLATE": true, "REFERENCES": true,
		"GENERATED": true, "AS": true, "CONSTRAINT": true,
	}
	for i, tok := range tokens {
		if constraintKeywords[strings.ToUpper(tok)] {
			return tokens[:i], tokens[i:]
		}
	}
	return tokens, nil
}

// parseReferences finds "REFERENCES table(col)" in a token stream.
func parseReferences(tokens []string) (table, column string) {
	for i, tok := range tokens {
		if !strings.EqualFold(tok, "REFERENCES") || i+1 >= len(tokens) {
			continue
		}
		target := tokens[i+1]
		if p := strings.IndexByte(target, '('); p >= 0 {
			rest := target[p+1:]
			if q := strings.IndexByte(rest, ')'); q >= 0 {
				return unquoteSQLiteIdent(target[:p]), unquoteSQLiteIdent(rest[:q])
			}
			table = unquoteSQLiteIdent(target[:p])
			// column continues in later tokens: REFERENCES t (col)
			for j := i + 2; j < len(tokens); j++ {
				if q := strings.IndexByte(tokens[j], ')'); q >= 0 {
					return table, unquoteSQLiteIdent(strings.TrimSuffix(tokens[j][:q], ")"))
				}
			}
			return table, ""
		}
		table = unquoteSQLiteIdent(target)
		if i+2 < len(tokens) && strings.HasPrefix(tokens[i+2], "(") {
			col := strings.Trim(tokens[i+2], "()")
			return table, unquoteSQLiteIdent(col)
		}
		return table, ""
	}
	return "", ""
}

// extractParenList returns the comma-separated identifiers inside the
// first parenthesised group of item.
func extractParenList(item string) []string {
	open := strings.IndexByte(item, '(')
	if open < 0 {
		return nil
	}
	close := strings.IndexByte(item[open:], ')')
	if close < 0 {
		return nil
	}
	parts := strings.Split(item[open+1:open+close], ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if id := unquoteSQLiteIdent(strings.TrimSpace(p)); id != "" {
			out = append(out, id)
		}
	}
	return out
}

// splitTopLevel splits a CREATE TABLE body on commas at parenthesis
// depth zero, respecting quoted strings.
func splitTopLevel(s string) []string {
	var out []string
	depth := 0
	var quote byte
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if quote != 0 {
			if c == quote {
				quote = 0
			}
			continue
		}
		switch c {
		case '\'', '"', '`':
			quote = c
		case '[':
			quote = ']'
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if tail := strings.TrimSpace(s[start:]); tail != "" {
		out = append(out, tail)
	}
	return out
}

// tokenizeSQLite splits one definition item into whitespace-separated
// tokens, keeping quoted identifiers intact.
func tokenizeSQLite(s string) []string {
	var out []string
	i := 0
	for i < len(s) {
		for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
			i++
		}
		if i >= len(s) {
			break
		}
		start := i
		switch s[i] {
		case '"', '`', '\'':
			q := s[i]
			i++
			for i < len(s) && s[i] != q {
				i++
			}
			i++ // past the closing quote
		case '[':
			for i < len(s) && s[i] != ']' {
				i++
			}
			i++
		default:
			for i < len(s) && !strings.ContainsRune(" \t\n\r", rune(s[i])) {
				i++
			}
		}
		out = append(out, s[start:min(i, len(s))])
	}
	return out
}

// unquoteSQLiteIdent strips "double", `back`, [bracket] or 'single'
// quoting from an identifier.
func unquoteSQLiteIdent(s string) string {
	s = strings.TrimSpace(s)
	if len(s) >= 2 {
		switch {
		case s[0] == '"' && s[len(s)-1] == '"',
			s[0] == '`' && s[len(s)-1] == '`',
			s[0] == '\'' && s[len(s)-1] == '\'':
			return s[1 : len(s)-1]
		case s[0] == '[' && s[len(s)-1] == ']':
			return s[1 : len(s)-1]
		}
	}
	return s
}

// affinityKind maps a declared SQLite column type to a prism kind using
// SQLite's affinity rules (§3.1 of the datatype docs), refined with
// date/time detection for prism's temporal kinds.
func affinityKind(declared string) value.Kind {
	up := strings.ToUpper(strings.TrimSpace(declared))
	switch {
	case up == "":
		return value.Text
	case strings.Contains(up, "INT"):
		return value.Int
	case strings.Contains(up, "DATETIME"), strings.Contains(up, "TIMESTAMP"):
		return value.Time
	case strings.Contains(up, "DATE"):
		return value.Date
	case strings.Contains(up, "TIME"):
		return value.Time
	case strings.Contains(up, "CHAR"), strings.Contains(up, "CLOB"), strings.Contains(up, "TEXT"):
		return value.Text
	case strings.Contains(up, "BLOB"):
		return value.Text
	case strings.Contains(up, "REAL"), strings.Contains(up, "FLOA"),
		strings.Contains(up, "DOUB"), strings.Contains(up, "DEC"),
		strings.Contains(up, "NUM"):
		return value.Decimal
	default:
		return value.Decimal // SQLite's catch-all NUMERIC affinity
	}
}
