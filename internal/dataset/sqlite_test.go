package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prism/internal/value"
)

// ---------------------------------------------------------------------
// Fixture writer: a minimal SQLite 3 encoder, the mirror image of
// sqlite.go's reader. Page size 512 keeps the fixture small while
// forcing interior pages and overflow chains with little data.

const fixturePageSize = 512

type sqliteCellValue struct {
	null  bool
	isInt bool
	i     int64
	isF   bool
	f     float64
	s     string
}

func cvNull() sqliteCellValue           { return sqliteCellValue{null: true} }
func cvInt(i int64) sqliteCellValue     { return sqliteCellValue{isInt: true, i: i} }
func cvFloat(f float64) sqliteCellValue { return sqliteCellValue{isF: true, f: f} }
func cvText(s string) sqliteCellValue   { return sqliteCellValue{s: s} }

func putSQLiteVarint(v uint64) []byte {
	if v == 0 {
		return []byte{0}
	}
	var tmp [10]byte
	n := 0
	for v > 0 {
		tmp[n] = byte(v & 0x7f)
		v >>= 7
		n++
	}
	out := make([]byte, 0, n)
	for i := n - 1; i >= 0; i-- {
		b := tmp[i]
		if i != 0 {
			b |= 0x80
		}
		out = append(out, b)
	}
	return out
}

// encodeSQLiteRecord builds a record payload from typed cells.
func encodeSQLiteRecord(cells []sqliteCellValue) []byte {
	var serials []byte
	var body []byte
	for _, c := range cells {
		switch {
		case c.null:
			serials = append(serials, putSQLiteVarint(0)...)
		case c.isInt:
			serials = append(serials, putSQLiteVarint(6)...)
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], uint64(c.i))
			body = append(body, b[:]...)
		case c.isF:
			serials = append(serials, putSQLiteVarint(7)...)
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], math.Float64bits(c.f))
			body = append(body, b[:]...)
		default:
			serials = append(serials, putSQLiteVarint(uint64(13+2*len(c.s)))...)
			body = append(body, c.s...)
		}
	}
	// Header length varint counts itself; sizes here stay below 128 so a
	// one-byte varint is always enough.
	header := append(putSQLiteVarint(uint64(1+len(serials))), serials...)
	return append(header, body...)
}

// sqliteFixtureBuilder accumulates fixed-size pages.
type sqliteFixtureBuilder struct {
	pages [][]byte // index 0 = page 1
}

func (b *sqliteFixtureBuilder) newPage() (int, []byte) {
	p := make([]byte, fixturePageSize)
	b.pages = append(b.pages, p)
	return len(b.pages), p // 1-based page number
}

type fixtureRow struct {
	rowid  int64
	record []byte
}

// addTable writes the rows as a table b-tree and returns its root page.
// Rows overflowing maxLocal spill to overflow pages; more rows than fit
// one leaf produce multiple leaves under an interior root.
func (b *sqliteFixtureBuilder) addTable(rows []fixtureRow) int {
	usable := fixturePageSize
	maxLocal := usable - 35
	minLocal := (usable-12)*32/255 - 23

	type cell struct {
		data  []byte
		rowid int64
	}
	cells := make([]cell, 0, len(rows))
	for _, r := range rows {
		payload := r.record
		var cellBytes []byte
		cellBytes = append(cellBytes, putSQLiteVarint(uint64(len(payload)))...)
		cellBytes = append(cellBytes, putSQLiteVarint(uint64(r.rowid))...)
		if len(payload) <= maxLocal {
			cellBytes = append(cellBytes, payload...)
		} else {
			local := minLocal + (len(payload)-minLocal)%(usable-4)
			if local > maxLocal {
				local = minLocal
			}
			cellBytes = append(cellBytes, payload[:local]...)
			// Chain the remainder through overflow pages.
			rest := payload[local:]
			var chain []int
			for len(rest) > 0 {
				n := usable - 4
				if n > len(rest) {
					n = len(rest)
				}
				num, page := b.newPage()
				copy(page[4:], rest[:n])
				chain = append(chain, num)
				rest = rest[n:]
			}
			for i, num := range chain[:len(chain)-1] {
				binary.BigEndian.PutUint32(b.pages[num-1][:4], uint32(chain[i+1]))
			}
			var ptr [4]byte
			binary.BigEndian.PutUint32(ptr[:], uint32(chain[0]))
			cellBytes = append(cellBytes, ptr[:]...)
		}
		cells = append(cells, cell{data: cellBytes, rowid: r.rowid})
	}

	// Pack cells into leaves greedily.
	type leaf struct {
		nums  []int
		first int
	}
	var leafPages []int
	var leafMaxRowid []int64
	i := 0
	for i < len(cells) {
		num, page := b.newPage()
		hdr := 0
		content := fixturePageSize
		var offsets []int
		for i < len(cells) {
			need := len(cells[i].data) + 2 // cell + pointer slot
			used := hdr + 8 + 2*len(offsets)
			if content-len(cells[i].data) < used+2 {
				_ = need
				break
			}
			content -= len(cells[i].data)
			copy(page[content:], cells[i].data)
			offsets = append(offsets, content)
			i++
		}
		page[hdr] = 0x0D
		binary.BigEndian.PutUint16(page[hdr+3:], uint16(len(offsets)))
		binary.BigEndian.PutUint16(page[hdr+5:], uint16(content))
		for j, off := range offsets {
			binary.BigEndian.PutUint16(page[hdr+8+2*j:], uint16(off))
		}
		leafPages = append(leafPages, num)
		leafMaxRowid = append(leafMaxRowid, cells[i-1].rowid)
	}
	if len(leafPages) == 1 {
		return leafPages[0]
	}

	// Interior root: one 4-byte child pointer + rowid varint per leaf
	// except the last, which becomes the right-most pointer.
	num, page := b.newPage()
	page[0] = 0x05
	nCells := len(leafPages) - 1
	binary.BigEndian.PutUint16(page[3:], uint16(nCells))
	binary.BigEndian.PutUint32(page[8:], uint32(leafPages[len(leafPages)-1]))
	content := fixturePageSize
	for j := 0; j < nCells; j++ {
		var cellBytes []byte
		var child [4]byte
		binary.BigEndian.PutUint32(child[:], uint32(leafPages[j]))
		cellBytes = append(cellBytes, child[:]...)
		cellBytes = append(cellBytes, putSQLiteVarint(uint64(leafMaxRowid[j]))...)
		content -= len(cellBytes)
		copy(page[content:], cellBytes)
		binary.BigEndian.PutUint16(page[12+2*j:], uint16(content))
	}
	binary.BigEndian.PutUint16(page[5:], uint16(content))
	return num
}

// writeSQLiteFixture writes the file sqliteFixture assembles.
func writeSQLiteFixture(t *testing.T, path string, tables []fixtureTable) {
	t.Helper()
	if err := os.WriteFile(path, sqliteFixture(t, tables), 0o644); err != nil {
		t.Fatal(err)
	}
}

// fixtureTable is one table of a fixture file: its CREATE TABLE statement
// and its rows.
type fixtureTable = struct {
	name string
	sql  string
	rows []fixtureRow
}

// sqliteFixture assembles the full file: page 1 hosts the header and the
// sqlite_master leaf.
func sqliteFixture(t testing.TB, tables []fixtureTable) []byte {
	t.Helper()
	b := &sqliteFixtureBuilder{}
	b.newPage() // reserve page 1

	var masters []fixtureRow
	for i, tbl := range tables {
		root := b.addTable(tbl.rows)
		masters = append(masters, fixtureRow{
			rowid: int64(i + 1),
			record: encodeSQLiteRecord([]sqliteCellValue{
				cvText("table"), cvText(tbl.name), cvText(tbl.name),
				cvInt(int64(root)), cvText(tbl.sql),
			}),
		})
	}

	// sqlite_master leaf inside page 1, after the 100-byte header.
	page := b.pages[0]
	hdr := 100
	content := fixturePageSize
	var offsets []int
	for _, m := range masters {
		var cellBytes []byte
		cellBytes = append(cellBytes, putSQLiteVarint(uint64(len(m.record)))...)
		cellBytes = append(cellBytes, putSQLiteVarint(uint64(m.rowid))...)
		cellBytes = append(cellBytes, m.record...)
		content -= len(cellBytes)
		if content < hdr+8+2*(len(offsets)+1) {
			t.Fatal("fixture: sqlite_master overflows page 1; raise the page size")
		}
		copy(page[content:], cellBytes)
		offsets = append(offsets, content)
	}
	page[hdr] = 0x0D
	binary.BigEndian.PutUint16(page[hdr+3:], uint16(len(offsets)))
	binary.BigEndian.PutUint16(page[hdr+5:], uint16(content))
	for j, off := range offsets {
		binary.BigEndian.PutUint16(page[hdr+8+2*j:], uint16(off))
	}

	copy(page[:16], sqliteMagic)
	binary.BigEndian.PutUint16(page[16:], fixturePageSize)
	page[18], page[19] = 1, 1 // rollback-journal read/write versions
	page[21], page[22], page[23] = 64, 32, 32
	binary.BigEndian.PutUint32(page[28:], uint32(len(b.pages)))
	binary.BigEndian.PutUint32(page[56:], 1) // UTF-8

	var out []byte
	for _, p := range b.pages {
		out = append(out, p...)
	}
	return out
}

// ---------------------------------------------------------------------
// Tests

func fixtureTables() []struct {
	name string
	sql  string
	rows []fixtureRow
} {
	teamRows := []fixtureRow{
		{1, encodeSQLiteRecord([]sqliteCellValue{cvNull(), cvText("Lakers"), cvText("Los Angeles"), cvInt(1947)})},
		{2, encodeSQLiteRecord([]sqliteCellValue{cvNull(), cvText("Celtics"), cvText("Boston"), cvInt(1946)})},
		{3, encodeSQLiteRecord([]sqliteCellValue{cvNull(), cvText("Warriors"), cvText("San Francisco"), cvInt(1946)})},
	}
	// Enough players to force multiple leaf pages under an interior
	// root at a 512-byte page size, plus one bio long enough to chain
	// through overflow pages and one row with NULLs.
	var playerRows []fixtureRow
	for i := 1; i <= 60; i++ {
		bio := fmt.Sprintf("Player number %d plays hard.", i)
		if i == 7 {
			bio = strings.Repeat("An exceedingly long biography. ", 40) // ~1240 bytes: overflows
		}
		cells := []sqliteCellValue{
			cvNull(),
			cvText(fmt.Sprintf("Player %02d", i)),
			cvInt(int64(i%3 + 1)),
			cvFloat(1.80 + float64(i)*0.01),
			cvText(bio),
		}
		if i == 13 {
			cells[3] = cvNull() // missing height
		}
		playerRows = append(playerRows, fixtureRow{int64(i), encodeSQLiteRecord(cells)})
	}
	return []struct {
		name string
		sql  string
		rows []fixtureRow
	}{
		{
			name: "Team",
			sql:  `CREATE TABLE Team (id INTEGER PRIMARY KEY, Name TEXT, City TEXT, Founded INT)`,
			rows: teamRows,
		},
		{
			name: "Player",
			sql:  `CREATE TABLE "Player" (id INTEGER PRIMARY KEY, Name TEXT, team_id INT REFERENCES Team(id), Height REAL, Bio TEXT)`,
			rows: playerRows,
		},
	}
}

// TestLoadSQLite pins the reader end to end against a handcrafted file:
// schema mapping, rowid aliasing, interior-page traversal, overflow
// chains, NULLs, floats and foreign keys.
func TestLoadSQLite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "league.db")
	writeSQLiteFixture(t, path, fixtureTables())

	db, err := LoadSQLite(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.Name != "league" {
		t.Errorf("name = %q, want league", db.Name)
	}
	if got := db.NumRows("Team"); got != 3 {
		t.Errorf("Team rows = %d, want 3", got)
	}
	if got := db.NumRows("Player"); got != 60 {
		t.Errorf("Player rows = %d, want 60", got)
	}

	// Rowid aliasing: the INTEGER PRIMARY KEY column gets the b-tree key.
	rows, _ := db.SampleRows("Player", 0)
	if got := rows[6][0]; got.Kind() != value.Int || got.Int() != 7 {
		t.Errorf("Player row 7 id = %v, want 7", got)
	}
	// Overflow payload round-trips intact.
	if bio := rows[6][4].Text(); len(bio) < 1000 || !strings.HasPrefix(bio, "An exceedingly long") {
		t.Errorf("overflowed bio = %d bytes %q...", len(bio), bio[:min(len(bio), 40)])
	}
	// NULL survives.
	if !rows[12][3].IsNull() {
		t.Errorf("Player 13 Height = %v, want NULL", rows[12][3])
	}
	// Column-level REFERENCES becomes a schema foreign key.
	fks := db.Schema().ForeignKeys()
	if len(fks) != 1 || fks[0].String() != "Player.team_id -> Team.id" {
		t.Errorf("foreign keys = %v, want [Player.team_id -> Team.id]", fks)
	}
	// Affinities: INTEGER -> Int, REAL -> Decimal, TEXT -> Text.
	team, _ := db.Schema().Table("Team")
	if c, _ := team.Column("Founded"); c.Type != value.Int {
		t.Errorf("Founded type = %v, want int", c.Type)
	}
	player, _ := db.Schema().Table("Player")
	if c, _ := player.Column("Height"); c.Type != value.Decimal {
		t.Errorf("Height type = %v, want decimal", c.Type)
	}
	if !frozen(db) {
		t.Error("loaded database is not analyzed")
	}
}

// TestLoadSQLiteRejects pins the fail-closed paths: non-SQLite bytes,
// WAL mode, WITHOUT ROWID.
func TestLoadSQLiteRejects(t *testing.T) {
	dir := t.TempDir()

	t.Run("not sqlite", func(t *testing.T) {
		p := filepath.Join(dir, "plain.db")
		if err := os.WriteFile(p, []byte("hello, this is not a database"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSQLite(p); err == nil {
			t.Fatal("want an error for non-SQLite bytes")
		}
	})
	t.Run("wal mode", func(t *testing.T) {
		p := filepath.Join(dir, "wal.db")
		writeSQLiteFixture(t, p, fixtureTables())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[18], data[19] = 2, 2
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSQLite(p); err == nil || !strings.Contains(err.Error(), "WAL") {
			t.Fatalf("err = %v, want a WAL rejection", err)
		}
	})
	t.Run("without rowid", func(t *testing.T) {
		if _, err := parseCreateTable(`CREATE TABLE kv (k TEXT PRIMARY KEY, v TEXT) WITHOUT ROWID`); err == nil {
			t.Fatal("want an error for WITHOUT ROWID")
		}
	})
	for name, corrupt := range map[string]func(testing.TB, []byte) []byte{
		"root page past any page count": hugeRootPage,
		"payload longer than the file":  hugePayloadLength,
		"cell pointers past the page": func(_ testing.TB, file []byte) []byte {
			file = bytes.Clone(file)
			binary.BigEndian.PutUint16(file[100+3:], 0xffff) // sqlite_master's cell count
			return file
		},
	} {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(dir, "corrupt.db")
			if err := os.WriteFile(p, corrupt(t, sqliteFixture(t, fixtureTables())), 0o644); err != nil {
				t.Fatal(err)
			}
			if db, err := LoadSQLite(p); !errors.Is(err, ErrSQLiteCorrupt) || db != nil {
				t.Fatalf("err = %v (db %v), want ErrSQLiteCorrupt", err, db)
			}
		})
	}
}

// hugeRootPage gives the fixture's first table the sqlite_master root page
// 0x00ff000000000002, whose byte offset overflows an int.
func hugeRootPage(t testing.TB, file []byte) []byte {
	t.Helper()
	file = bytes.Clone(file)
	at := bytes.Index(file, []byte("tableTeamTeam"))
	if at < 0 {
		t.Fatal("fixture: no sqlite_master row for Team")
	}
	binary.BigEndian.PutUint64(file[at+len("tableTeamTeam"):], 0x00ff000000000002)
	return file
}

// hugePayloadLength rewrites the payload length of the fixture's one
// overflowing cell, Player row 7, to 2^53 overflow pages' worth more: the
// same local share of the cell, in a nine-byte varint that ends where the
// old one did.
func hugePayloadLength(t testing.TB, file []byte) []byte {
	t.Helper()
	file = bytes.Clone(file)
	for start := 0; start+fixturePageSize <= len(file); start += fixturePageSize {
		page := file[start : start+fixturePageSize]
		if page[0] != 0x0D {
			continue
		}
		for i := 0; i < int(binary.BigEndian.Uint16(page[3:])); i++ {
			ptr := page[8+2*i:]
			off := int(binary.BigEndian.Uint16(ptr))
			total, n := sqliteUvarint(page[off:])
			if rowid, _ := sqliteUvarint(page[off+n:]); rowid != 7 || total < fixturePageSize {
				continue
			}
			total += (fixturePageSize - 4) << 53
			off += n - 9
			for b := 0; b < 8; b++ {
				page[off+b] = 0x80 | byte(total>>(8+7*(7-b)))&0x7f
			}
			page[off+8] = byte(total)
			binary.BigEndian.PutUint16(ptr, uint16(off))
			return file
		}
	}
	t.Fatal("fixture: no overflowing cell for Player row 7")
	return nil
}

// TestParseCreateTable covers the statement-parsing corners: quoting
// styles, table-level constraints, FK forms and affinity mapping.
func TestParseCreateTable(t *testing.T) {
	def, err := parseCreateTable("CREATE TABLE [Order Items] (\n" +
		"  `id` INTEGER PRIMARY KEY,\n" +
		"  \"product\" VARCHAR(80) NOT NULL,\n" +
		"  qty NUMERIC DEFAULT 1,\n" +
		"  placed_on DATE,\n" +
		"  updated DATETIME,\n" +
		"  customer TEXT REFERENCES Customers(Name),\n" +
		"  note,\n" +
		"  FOREIGN KEY (product) REFERENCES Products(SKU),\n" +
		"  UNIQUE (product, customer),\n" +
		"  CHECK (qty > 0)\n" +
		")")
	if err != nil {
		t.Fatal(err)
	}
	if def.name != "Order Items" {
		t.Errorf("name = %q", def.name)
	}
	wantCols := []struct {
		name string
		kind value.Kind
	}{
		{"id", value.Int}, {"product", value.Text}, {"qty", value.Decimal},
		{"placed_on", value.Date}, {"updated", value.Time},
		{"customer", value.Text}, {"note", value.Text},
	}
	if len(def.columns) != len(wantCols) {
		t.Fatalf("columns = %+v, want %d", def.columns, len(wantCols))
	}
	for i, w := range wantCols {
		if def.columns[i].name != w.name || def.columns[i].kind != w.kind {
			t.Errorf("column %d = %+v, want %+v", i, def.columns[i], w)
		}
	}
	if def.rowidColumn != 0 || def.primaryKey != "id" {
		t.Errorf("rowidColumn = %d primaryKey = %q", def.rowidColumn, def.primaryKey)
	}
	if len(def.foreignKeys) != 2 {
		t.Fatalf("foreign keys = %+v, want 2", def.foreignKeys)
	}
	if fk := def.foreignKeys[0]; fk.fromColumn != "customer" || fk.toTable != "Customers" || fk.toColumn != "Name" {
		t.Errorf("column-level FK = %+v", fk)
	}
	if fk := def.foreignKeys[1]; fk.fromColumn != "product" || fk.toTable != "Products" || fk.toColumn != "SKU" {
		t.Errorf("table-level FK = %+v", fk)
	}
}

// TestLoadSQLiteFlexibleTyping pins the load-never-aborts contract:
// conventional "YYYY-MM-DD HH:MM:SS" text and unix-epoch integers load
// as the declared temporal kind, and mistyped cells — legal under
// SQLite's flexible typing — degrade the column to Text instead of
// failing the whole file. Pre-fix, every one of these rows aborted
// LoadSQLite with a coercion error.
func TestLoadSQLiteFlexibleTyping(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.db")
	writeSQLiteFixture(t, path, []struct {
		name string
		sql  string
		rows []fixtureRow
	}{{
		name: "Event",
		sql:  `CREATE TABLE Event (id INTEGER PRIMARY KEY, created DATETIME, seen TIMESTAMP, day DATE, n INT)`,
		rows: []fixtureRow{
			{1, encodeSQLiteRecord([]sqliteCellValue{cvNull(), cvText("2021-03-04 10:30:00"), cvInt(1600000000), cvText("2021-03-04"), cvInt(5)})},
			{2, encodeSQLiteRecord([]sqliteCellValue{cvNull(), cvText("2022-12-31 23:59:59"), cvInt(1700000000), cvText("not a date"), cvText("five")})},
		},
	}})

	db, err := LoadSQLite(path)
	if err != nil {
		t.Fatal(err)
	}
	event, _ := db.Schema().Table("Event")
	if c, _ := event.Column("created"); c.Type != value.Time {
		t.Errorf("created type = %v, want time", c.Type)
	}
	if c, _ := event.Column("seen"); c.Type != value.Time {
		t.Errorf("seen type = %v, want time", c.Type)
	}
	rows, _ := db.SampleRows("Event", 0)
	if got := rows[0][1]; got.Kind() != value.Time {
		t.Errorf("created value = %v (%s), want a time", got, got.Kind())
	}
	if got := rows[0][2]; got.Kind() != value.Time || got.TimeValue().Unix() != 1600000000 {
		t.Errorf("seen value = %v (%s), want epoch 1600000000", got, got.Kind())
	}
	// Mixed columns fall back to Text, every original value preserved.
	if c, _ := event.Column("day"); c.Type != value.Text {
		t.Errorf("day type = %v, want text (mixed date/garbage cells)", c.Type)
	}
	if c, _ := event.Column("n"); c.Type != value.Text {
		t.Errorf("n type = %v, want text (mixed int/text cells)", c.Type)
	}
	if got := rows[0][4]; got.Kind() != value.Text || got.Text() != "5" {
		t.Errorf("n row 1 = %v, want \"5\"", got)
	}
	if got := rows[1][4]; got.Kind() != value.Text || got.Text() != "five" {
		t.Errorf("n row 2 = %v, want \"five\"", got)
	}
}

// TestWalkTableCyclicPages pins the corruption guard: an interior page
// whose child pointer leads back to itself is rejected with a clear
// error instead of recursing to a stack overflow.
func TestWalkTableCyclicPages(t *testing.T) {
	data := make([]byte, 2*fixturePageSize)
	p := data[fixturePageSize:] // page 2
	p[0] = 0x05
	binary.BigEndian.PutUint16(p[3:], 0) // no cells
	binary.BigEndian.PutUint32(p[8:], 2) // right-most child: itself
	f := &sqliteFile{data: data, pageSize: fixturePageSize, usable: fixturePageSize}
	err := f.walkTable(2, func(int64, []sqliteValue) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v, want a b-tree cycle rejection", err)
	}
}

// TestLoadSQLiteIntPrimaryKeyIsNotRowid pins SQLite's rowid-alias rule:
// only a column declared exactly INTEGER is the rowid. An INT PRIMARY
// KEY column is a real column that may hold NULL, which must not be
// replaced by the b-tree key.
func TestLoadSQLiteIntPrimaryKeyIsNotRowid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ids.db")
	writeSQLiteFixture(t, path, []struct {
		name string
		sql  string
		rows []fixtureRow
	}{{
		name: "T",
		sql:  `CREATE TABLE T (id INT PRIMARY KEY, name TEXT)`,
		rows: []fixtureRow{{7, encodeSQLiteRecord([]sqliteCellValue{cvNull(), cvText("x")})}},
	}})
	db, err := LoadSQLite(path)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := db.SampleRows("T", 0)
	if !rows[0][0].IsNull() {
		t.Errorf("id = %v, want NULL (INT PRIMARY KEY is not the rowid)", rows[0][0])
	}

	// Same rule for table-level PRIMARY KEY(col) constraints.
	def, err := parseCreateTable(`CREATE TABLE U (id BIGINT, PRIMARY KEY(id))`)
	if err != nil {
		t.Fatal(err)
	}
	if def.rowidColumn != -1 {
		t.Errorf("BIGINT table-level PK: rowidColumn = %d, want -1", def.rowidColumn)
	}
	def, err = parseCreateTable(`CREATE TABLE V (id INTEGER, PRIMARY KEY(id))`)
	if err != nil {
		t.Fatal(err)
	}
	if def.rowidColumn != 0 {
		t.Errorf("INTEGER table-level PK: rowidColumn = %d, want 0", def.rowidColumn)
	}
}
