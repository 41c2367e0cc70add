package mem

// Engine snapshots: a compact, checksummed binary serialization of one
// analyzed Database — schema, cells (column-major) and per-column
// statistics — so a serving process can cold-start by decoding a file
// instead of re-running a generator and re-coercing every cell. The cells
// are read off the key dictionaries, which are not carried: ReadSnapshot
// freezes the decoded rows into them (Analyze) before it returns, so a
// restored database is analysed like any other and builds nothing later.
// The format is versioned (the last two bytes of snapshotMagic) and the
// payload is guarded by a CRC; a file of another version fails with
// ErrSnapshotVersion, and every other decode failure, from a bad magic to a
// truncated statistics entry, fails closed with ErrSnapshotCorrupt.
//
// The data version (Database.Version) is stored verbatim: filter-outcome
// caches key on it, so a snapshot round trip keeps cached session state
// addressable exactly as if the process had never restarted.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"prism/internal/fault"
	"prism/internal/schema"
	"prism/internal/value"
)

// snapshotMagic opens every snapshot file. The trailing two bytes are the
// format version; bumping them invalidates old files explicitly rather than
// misreading them. Version 01 closed with a global keyword → (column, row)
// postings section and 02 with per-column keyword sets; 03 closes with the
// statistics, the keywords being the key dictionaries' own. There is no
// reader for an older version — rebuild the snapshot from its source.
var snapshotMagic = [8]byte{'P', 'R', 'S', 'N', 'A', 'P', '0', '3'}

var (
	// ErrSnapshotCorrupt reports a snapshot that failed structural
	// validation: wrong magic, truncated payload, checksum mismatch, or
	// an impossible encoding. Loads fail closed — no partially-decoded
	// database is ever returned.
	ErrSnapshotCorrupt = errors.New("mem: snapshot corrupt")
	// ErrSnapshotVersion reports a snapshot written by an incompatible
	// format version of this package.
	ErrSnapshotVersion = errors.New("mem: unsupported snapshot format version")
)

// WriteSnapshot serializes the database to w. It freezes the database
// first (Analyze; a no-op on a frozen one) and reads every cell off the key
// dictionaries.
func (db *Database) WriteSnapshot(w io.Writer) error {
	if err := faultSnapshotEncode.Hit(); err != nil {
		return fmt.Errorf("mem: writing snapshot: %w", err)
	}
	w = faultSnapshotEncode.Writer(w)
	db.Analyze()

	var body bytes.Buffer
	enc := snapshotEncoder{w: &body}
	enc.string(db.Name)
	enc.uvarint(db.version)
	enc.schema(db.sch)
	for _, ts := range db.sch.Tables() {
		t := db.tables[strings.ToLower(ts.Name)]
		enc.uvarint(uint64(t.n))
		// Column-major with a per-column encoding tag: text columns are
		// dictionary-encoded (each distinct string stored once, rows as
		// codes), everything else is a plain kind-tagged value stream.
		// Cold-start decode speed is the point — a dictionary column
		// costs one string allocation per distinct value instead of one
		// per row.
		for ci, c := range ts.Columns {
			enc.column(c.Type, t.column(ci, t.n))
		}
	}
	enc.statistics(db)

	header := make([]byte, 0, len(snapshotMagic)+2+12)
	header = append(header, snapshotMagic[:]...)
	header = binary.LittleEndian.AppendUint64(header, uint64(body.Len()))
	header = binary.LittleEndian.AppendUint32(header, crc32.ChecksumIEEE(body.Bytes()))
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("mem: writing snapshot header: %w", err)
	}
	if _, err := w.Write(body.Bytes()); err != nil {
		return fmt.Errorf("mem: writing snapshot body: %w", err)
	}
	return nil
}

// ReadSnapshot decodes a snapshot written by WriteSnapshot. The returned
// database is frozen into its key dictionaries and statistics (Analyze) and
// carries the original data version.
func ReadSnapshot(r io.Reader) (*Database, error) {
	if err := faultSnapshotDecode.Hit(); err != nil {
		if errors.Is(err, fault.ErrInjected) {
			// Injected decode failures present as corruption so callers
			// exercise their real degraded path.
			return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
		}
		return nil, fmt.Errorf("mem: reading snapshot: %w", err)
	}
	header := make([]byte, len(snapshotMagic)+12)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrSnapshotCorrupt, err)
	}
	if !bytes.Equal(header[:len(snapshotMagic)-2], snapshotMagic[:len(snapshotMagic)-2]) {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	if !bytes.Equal(header[:len(snapshotMagic)], snapshotMagic[:]) {
		return nil, fmt.Errorf("%w: snapshot format %q, this build reads %q",
			ErrSnapshotVersion, header[len(snapshotMagic)-2:len(snapshotMagic)], snapshotMagic[len(snapshotMagic)-2:])
	}
	bodyLen := binary.LittleEndian.Uint64(header[len(snapshotMagic):])
	wantCRC := binary.LittleEndian.Uint32(header[len(snapshotMagic)+8:])
	const maxSnapshotBytes = 1 << 36 // 64 GiB: reject absurd lengths before allocating
	if bodyLen > maxSnapshotBytes {
		return nil, fmt.Errorf("%w: implausible body length %d", ErrSnapshotCorrupt, bodyLen)
	}
	body, err := readBody(r, bodyLen)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated body: %v", ErrSnapshotCorrupt, err)
	}
	if crc32.ChecksumIEEE(body) != wantCRC {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}

	dec := &snapshotDecoder{buf: body}
	db, err := dec.database()
	if err != nil {
		return nil, err
	}
	if dec.pos != len(dec.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, len(dec.buf)-dec.pos)
	}
	db.Analyze()
	return db, nil
}

// readBody reads the n bytes the header declares without trusting n with an
// allocation: the buffer starts at no more than 1 MiB and doubles only once
// it is full of bytes that actually arrived, so a header that lies about the
// length costs at most twice what the reader really holds.
func readBody(r io.Reader, n uint64) ([]byte, error) {
	body := make([]byte, min(n, 1<<20))
	read := 0
	for {
		m, err := io.ReadFull(r, body[read:])
		read += m
		if err != nil {
			return nil, err
		}
		if uint64(read) == n {
			return body, nil
		}
		grown := make([]byte, min(n, 2*uint64(read)))
		copy(grown, body)
		body = grown
	}
}

// ---------------------------------------------------------------------
// Encoding

type snapshotEncoder struct {
	w *bytes.Buffer
}

func (e snapshotEncoder) uvarint(v uint64) { e.w.Write(binary.AppendUvarint(nil, v)) }
func (e snapshotEncoder) varint(v int64)   { e.w.Write(binary.AppendVarint(nil, v)) }

func (e snapshotEncoder) string(s string) {
	e.uvarint(uint64(len(s)))
	e.w.WriteString(s)
}

func (e snapshotEncoder) value(v value.Value) {
	e.w.WriteByte(byte(v.Kind()))
	switch v.Kind() {
	case value.Null:
	case value.Int:
		e.varint(v.Int())
	case value.Decimal:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.Decimal()))
		e.w.Write(b[:])
	case value.Text:
		e.string(v.Text())
	case value.Date, value.Time:
		e.varint(v.TimeValue().Unix())
	}
}

// Column encoding tags. The trailing-garbage and bit-flip tests cover
// both branches via the fixture's mixed schema.
const (
	colPlain    = 0 // kind-tagged value per row
	colDictText = 1 // string dictionary, then one code per row (0 = NULL)
)

// column writes one table column. Text columns get the dictionary
// encoding; any other declared type — and, defensively, a text column
// holding a mistyped non-null cell — gets the plain stream.
func (e snapshotEncoder) column(declared value.Kind, cells []value.Value) {
	plain := declared != value.Text
	for _, v := range cells {
		if !v.IsNull() && v.Kind() != declared {
			plain = true
			break
		}
	}
	if plain {
		e.w.WriteByte(colPlain)
		for _, v := range cells {
			e.value(v)
		}
		return
	}
	e.w.WriteByte(colDictText)
	codes := make(map[string]uint64) // string -> code; 0 is NULL, so codes start at 1
	dict := make([]string, 0, 16)    // first-seen order keeps the bytes deterministic
	rowCodes := make([]uint64, len(cells))
	for ri, v := range cells {
		if v.IsNull() {
			continue
		}
		s := v.Text()
		code, ok := codes[s]
		if !ok {
			dict = append(dict, s)
			code = uint64(len(dict))
			codes[s] = code
		}
		rowCodes[ri] = code
	}
	e.uvarint(uint64(len(dict)))
	for _, s := range dict {
		e.string(s)
	}
	for _, code := range rowCodes {
		e.uvarint(code)
	}
}

func (e snapshotEncoder) schema(s *schema.Schema) {
	tables := s.Tables()
	e.uvarint(uint64(len(tables)))
	for _, t := range tables {
		e.string(t.Name)
		e.string(t.Comment)
		e.uvarint(uint64(len(t.Columns)))
		for _, c := range t.Columns {
			e.string(c.Name)
			e.w.WriteByte(byte(c.Type))
			e.string(c.Comment)
		}
		e.uvarint(uint64(len(t.PrimaryKey)))
		for _, pk := range t.PrimaryKey {
			e.string(pk)
		}
	}
	fks := s.ForeignKeys()
	e.uvarint(uint64(len(fks)))
	for _, fk := range fks {
		e.string(fk.From.Table)
		e.string(fk.From.Column)
		e.string(fk.To.Table)
		e.string(fk.To.Column)
	}
}

// statistics writes the preprocessing product: every column's statistics
// against its ordinal in schema declaration order, sorted by
// lower(Table.Column) so identical databases produce identical bytes.
func (e snapshotEncoder) statistics(db *Database) {
	type entry struct {
		key string
		ord int
		st  schema.Stats
	}
	var all []entry
	for _, ts := range db.sch.Tables() {
		for _, st := range db.tables[strings.ToLower(ts.Name)].stats {
			all = append(all, entry{statsKey(st.Ref), len(all), st})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].key < all[j].key })
	e.uvarint(uint64(len(all)))
	for _, en := range all {
		st := en.st
		e.uvarint(uint64(en.ord))
		e.w.WriteByte(byte(st.Type))
		e.value(st.Min)
		e.value(st.Max)
		e.uvarint(uint64(st.MaxLength))
		e.uvarint(uint64(st.RowCount))
		e.uvarint(uint64(st.NullCount))
		e.uvarint(uint64(st.Distinct))
	}
}

// ---------------------------------------------------------------------
// Decoding

type snapshotDecoder struct {
	buf []byte
	pos int
}

func (d *snapshotDecoder) fail(format string, args ...any) error {
	return fmt.Errorf("%w: %s at offset %d", ErrSnapshotCorrupt, fmt.Sprintf(format, args...), d.pos)
}

func (d *snapshotDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, d.fail("bad uvarint")
	}
	d.pos += n
	return v, nil
}

func (d *snapshotDecoder) varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		return 0, d.fail("bad varint")
	}
	d.pos += n
	return v, nil
}

// count decodes a collection length and bounds it against the bytes that
// remain: every element costs at least one byte, so any length exceeding
// the remaining payload is corruption, caught before allocation.
func (d *snapshotDecoder) count() (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(d.buf)-d.pos) {
		return 0, d.fail("count %d exceeds remaining payload", v)
	}
	return int(v), nil
}

func (d *snapshotDecoder) string() (string, error) {
	n, err := d.count()
	if err != nil {
		return "", err
	}
	s := string(d.buf[d.pos : d.pos+n])
	d.pos += n
	return s, nil
}

func (d *snapshotDecoder) byte() (byte, error) {
	if d.pos >= len(d.buf) {
		return 0, d.fail("unexpected end of payload")
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

func (d *snapshotDecoder) value() (value.Value, error) {
	kind, err := d.byte()
	if err != nil {
		return value.NullValue, err
	}
	switch value.Kind(kind) {
	case value.Null:
		return value.NullValue, nil
	case value.Int:
		i, err := d.varint()
		if err != nil {
			return value.NullValue, err
		}
		return value.NewInt(i), nil
	case value.Decimal:
		if d.pos+8 > len(d.buf) {
			return value.NullValue, d.fail("truncated decimal")
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.pos:]))
		d.pos += 8
		return value.NewDecimal(f), nil
	case value.Text:
		s, err := d.string()
		if err != nil {
			return value.NullValue, err
		}
		return value.NewText(s), nil
	case value.Date:
		secs, err := d.varint()
		if err != nil {
			return value.NullValue, err
		}
		return value.NewDate(time.Unix(secs, 0).UTC()), nil
	case value.Time:
		secs, err := d.varint()
		if err != nil {
			return value.NullValue, err
		}
		return value.NewTime(time.Unix(secs, 0).UTC()), nil
	default:
		return value.NullValue, d.fail("unknown value kind %d", kind)
	}
}

func (d *snapshotDecoder) schema() (*schema.Schema, error) {
	numTables, err := d.count()
	if err != nil {
		return nil, err
	}
	s := schema.New()
	for i := 0; i < numTables; i++ {
		name, err := d.string()
		if err != nil {
			return nil, err
		}
		comment, err := d.string()
		if err != nil {
			return nil, err
		}
		numCols, err := d.count()
		if err != nil {
			return nil, err
		}
		cols := make([]schema.Column, numCols)
		for ci := range cols {
			if cols[ci].Name, err = d.string(); err != nil {
				return nil, err
			}
			kind, err := d.byte()
			if err != nil {
				return nil, err
			}
			cols[ci].Type = value.Kind(kind)
			if cols[ci].Comment, err = d.string(); err != nil {
				return nil, err
			}
		}
		t, err := schema.NewTable(name, cols...)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
		}
		t.Comment = comment
		numPK, err := d.count()
		if err != nil {
			return nil, err
		}
		for p := 0; p < numPK; p++ {
			pk, err := d.string()
			if err != nil {
				return nil, err
			}
			t.PrimaryKey = append(t.PrimaryKey, pk)
		}
		if err := s.AddTable(t); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
		}
	}
	numFKs, err := d.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < numFKs; i++ {
		var fk schema.ForeignKey
		if fk.From.Table, err = d.string(); err != nil {
			return nil, err
		}
		if fk.From.Column, err = d.string(); err != nil {
			return nil, err
		}
		if fk.To.Table, err = d.string(); err != nil {
			return nil, err
		}
		if fk.To.Column, err = d.string(); err != nil {
			return nil, err
		}
		if err := s.AddForeignKey(fk); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
		}
	}
	return s, nil
}

func (d *snapshotDecoder) database() (*Database, error) {
	name, err := d.string()
	if err != nil {
		return nil, err
	}
	version, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	sch, err := d.schema()
	if err != nil {
		return nil, err
	}
	db := NewDatabase(name, sch)
	db.version = version

	for _, t := range sch.Tables() {
		numRows, err := d.count()
		if err != nil {
			return nil, err
		}
		// Every cell costs at least one byte of what follows (a kind tag or a
		// dictionary code), so the row count is bounded before the cells are
		// allocated; rows of no columns would cost nothing and are refused.
		if numRows > 0 && (len(t.Columns) == 0 || numRows > (len(d.buf)-d.pos)/len(t.Columns)) {
			return nil, d.fail("table %s: %d rows of %d columns exceed remaining payload", t.Name, numRows, len(t.Columns))
		}
		rows := make([]value.Tuple, numRows)
		cells := make(value.Tuple, numRows*len(t.Columns))
		for ri := range rows {
			rows[ri] = cells[ri*len(t.Columns) : (ri+1)*len(t.Columns)]
		}
		for ci := range t.Columns {
			if err := d.column(t, ci, rows); err != nil {
				return nil, err
			}
		}
		tab := db.tables[strings.ToLower(t.Name)]
		tab.rows, tab.n = rows, numRows
	}

	if err := d.statistics(len(sch.AllColumns())); err != nil {
		return nil, err
	}
	return db, nil
}

// column decodes one table column into rows[*][ci] according to its
// encoding tag.
func (d *snapshotDecoder) column(t *schema.Table, ci int, rows []value.Tuple) error {
	declared := t.Columns[ci].Type
	tag, err := d.byte()
	if err != nil {
		return err
	}
	switch tag {
	case colPlain:
		for ri := range rows {
			v, err := d.value()
			if err != nil {
				return err
			}
			// Cells were coerced to the declared type before the
			// snapshot was written; a mismatch means the payload was
			// tampered with in a CRC-preserving way or written by a
			// buggy encoder. Either way: fail closed.
			if !v.IsNull() && v.Kind() != declared {
				return d.fail("table %s column %s: %s cell in a %s column",
					t.Name, t.Columns[ci].Name, v.Kind(), declared)
			}
			rows[ri][ci] = v
		}
	case colDictText:
		if declared != value.Text {
			return d.fail("table %s column %s: dictionary encoding on a %s column",
				t.Name, t.Columns[ci].Name, declared)
		}
		numDistinct, err := d.count()
		if err != nil {
			return err
		}
		dict := make([]value.Value, numDistinct+1) // dict[0] stays NULL
		for i := 1; i <= numDistinct; i++ {
			s, err := d.string()
			if err != nil {
				return err
			}
			dict[i] = value.NewText(s)
		}
		for ri := range rows {
			code, err := d.uvarint()
			if err != nil {
				return err
			}
			if code > uint64(numDistinct) {
				return d.fail("table %s column %s: dictionary code %d out of range",
					t.Name, t.Columns[ci].Name, code)
			}
			rows[ri][ci] = dict[code]
		}
	default:
		return d.fail("table %s column %s: unknown column encoding %d",
			t.Name, t.Columns[ci].Name, tag)
	}
	return nil
}

// statistics reads the statistics section, which the freeze at the end of
// ReadSnapshot computes again with the key dictionaries: it is checked for
// form, and not kept.
func (d *snapshotDecoder) statistics(numColumns int) error {
	numStats, err := d.count()
	if err != nil {
		return err
	}
	for i := 0; i < numStats; i++ {
		if _, err := d.ordinal(numColumns); err != nil {
			return err
		}
		if _, err := d.byte(); err != nil {
			return err
		}
		for j := 0; j < 2; j++ {
			if _, err := d.value(); err != nil {
				return err
			}
		}
		for j := 0; j < 4; j++ {
			if _, err := d.uvarint(); err != nil {
				return err
			}
		}
	}
	return nil
}

// ordinal decodes a column ordinal and bounds it by the schema's column count.
func (d *snapshotDecoder) ordinal(numColumns int) (int, error) {
	ord, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if ord >= uint64(numColumns) {
		return 0, d.fail("column ordinal %d out of range", ord)
	}
	return int(ord), nil
}
