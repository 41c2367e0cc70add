package mem

import (
	"encoding/binary"
	"hash/crc32"
	"strings"
)

// ColumnKeywords returns every column's keyword set (lower(Table.Column) ->
// set), read off the key dictionaries' keyword tables, to the external
// tests of this package, which can import the dataset generators where the
// internal ones cannot.
func (db *Database) ColumnKeywords() map[string]map[string]struct{} {
	out := make(map[string]map[string]struct{})
	for _, t := range db.tables {
		for ci, x := range t.cols {
			set := make(map[string]struct{}, len(x.Text))
			for kw := range x.Text {
				set[kw] = struct{}{}
			}
			ref := t.stats[ci].Ref
			out[strings.ToLower(ref.Table)+"."+strings.ToLower(ref.Column)] = set
		}
	}
	return out
}

// SnapshotHeaderLen is the size of the magic, body length and CRC that open
// a snapshot.
const SnapshotHeaderLen = len(snapshotMagic) + 12

// RestampSnapshot rewrites the header's body length and CRC to match the
// (edited) bytes after it, so an edit reaches the decoder instead of the
// checksum. snap must hold at least a header.
func RestampSnapshot(snap []byte) {
	body := snap[SnapshotHeaderLen:]
	binary.LittleEndian.PutUint64(snap[len(snapshotMagic):], uint64(len(body)))
	binary.LittleEndian.PutUint32(snap[len(snapshotMagic)+8:], crc32.ChecksumIEEE(body))
}
