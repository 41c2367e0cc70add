package mem

// Engine snapshots: a compact, checksummed binary serialization of one
// analyzed Database — its schema and, column by column, its key
// dictionaries' own codes — so a serving process can cold-start by decoding
// a file instead of re-running a generator and re-coercing every cell. A
// column is one code per row, read off the column's key dictionary
// (exec.ColumnIndex): NULL, the dictionary's next value, a variant row's own
// value, or a value id seen before; a value is its payload alone, the schema
// declaring its kind. Nothing derived from the cells is stored: ReadSnapshot
// freezes the decoded rows into the key dictionaries and statistics
// (Analyze) before it returns, so a restored database is analysed like any
// other and builds nothing later. The format is versioned (the last two
// bytes of snapshotMagic) and the payload is guarded by a CRC; a file of
// another version fails with ErrSnapshotVersion, and every other decode
// failure, from a bad magic to a value id never seen, fails closed with
// ErrSnapshotCorrupt.
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
	"strings"
	"time"

	"prism/internal/exec"
	"prism/internal/fault"
	"prism/internal/schema"
	"prism/internal/value"
)

// snapshotMagic opens every snapshot file. The trailing two bytes are the
// format version; bumping them invalidates old files explicitly rather than
// misreading them. There is no reader for an older version
// (docs/storage.md says what each held) — rebuild the snapshot from its
// source.
var snapshotMagic = [8]byte{'P', 'R', 'S', 'N', 'A', 'P', '0', '4'}

// The code of one row of a column: NULL, the column's next dictionary value
// (its payload follows), a variant row's own value (its payload follows), or
// codeID+id for dictionary value id, one introduced by an earlier row.
const (
	codeNull = iota
	codeNext
	codeVariant
	codeID
)

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
// first (Analyze; a no-op on a frozen one) and writes every column off its
// key dictionary.
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
		for _, x := range t.cols {
			enc.column(x)
		}
	}

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

// payload writes v, a value of the column's declared kind, without the kind.
func (e snapshotEncoder) payload(v value.Value) {
	switch v.Kind() {
	case value.Int:
		e.varint(v.Int())
	case value.Decimal:
		e.w.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v.Decimal())))
	case value.Text:
		e.string(v.Text())
	case value.Date, value.Time:
		e.varint(v.TimeValue().Unix())
	}
}

// column writes one column as one code per row, read off its key dictionary:
// value ids are handed out in first-seen row order, so the row that
// introduces an id is the one whose id is the count of ids seen so far.
func (e snapshotEncoder) column(x *exec.ColumnIndex) {
	seen, variant := 0, 0
	for row, id := range x.RowID {
		switch {
		case int(id) == len(x.Vals):
			e.uvarint(codeNull)
		case variant < len(x.VariantRows) && int(x.VariantRows[variant]) == row:
			e.uvarint(codeVariant)
			e.payload(x.VariantVals[variant])
			variant++
		case int(id) == seen:
			e.uvarint(codeNext)
			e.payload(x.Vals[id])
			seen++
		default:
			e.uvarint(codeID + uint64(id))
		}
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

// payload decodes a value of the given kind, written without it.
func (d *snapshotDecoder) payload(kind value.Kind) (value.Value, error) {
	switch kind {
	case value.Int:
		i, err := d.varint()
		return value.NewInt(i), err
	case value.Decimal:
		if d.pos+8 > len(d.buf) {
			return value.NullValue, d.fail("truncated decimal")
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.pos:]))
		d.pos += 8
		return value.NewDecimal(f), nil
	case value.Text:
		s, err := d.string()
		return value.NewText(s), err
	case value.Date, value.Time:
		secs, err := d.varint()
		t := time.Unix(secs, 0).UTC()
		if kind == value.Date {
			return value.NewDate(t), err
		}
		return value.NewTime(t), err
	default:
		return value.NullValue, d.fail("a value in a column of kind %d, which holds none", kind)
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
		// Every cell costs at least one byte of what follows (its code), so
		// the row count is bounded before the cells are allocated; rows of
		// no columns would cost nothing and are refused.
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

	return db, nil
}

// column decodes the codes of one table column into rows[*][ci]. A value id
// must be one of the values the column has introduced so far.
func (d *snapshotDecoder) column(t *schema.Table, ci int, rows []value.Tuple) error {
	kind := t.Columns[ci].Type
	var first []int32 // value id -> the row that introduced it
	for ri, row := range rows {
		code, err := d.uvarint()
		if err != nil {
			return err
		}
		switch {
		case code == codeNull:
		case code == codeNext || code == codeVariant:
			if row[ci], err = d.payload(kind); err != nil {
				return err
			}
			if code == codeNext {
				first = append(first, int32(ri))
			}
		case code-codeID < uint64(len(first)):
			row[ci] = rows[first[code-codeID]][ci]
		default:
			return d.fail("table %s column %s: value id %d of %d values seen",
				t.Name, t.Columns[ci].Name, code-codeID, len(first))
		}
	}
	return nil
}
