package mem

import (
	"encoding/binary"
	"hash/crc32"
)

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
