package mem

import "prism/internal/value"

// tupleDeduper deduplicates projected tuples for the reference engine's
// DISTINCT: membership is decided by the canonical tuple key
// (value.Tuple.Key, under which 3, 3.0 and "3" collide exactly like
// Value.Compare), but the table is keyed by a 64-bit FNV-1a fingerprint of
// that key, so steady-state lookups hash one word instead of a long
// composite string. Full keys are kept per fingerprint bucket and compared
// on hit, so a fingerprint collision can never merge two distinct tuples.
//
// The zero value is not usable; call newTupleDeduper. A deduper is not
// safe for concurrent use — each execution owns one.
type tupleDeduper struct {
	buckets map[uint64][]string
}

// newTupleDeduper returns an empty deduper.
func newTupleDeduper() *tupleDeduper {
	return &tupleDeduper{buckets: make(map[uint64][]string)}
}

// seen reports whether a tuple with the same canonical key was recorded
// before, recording it if not.
func (d *tupleDeduper) seen(t value.Tuple) bool {
	key := t.Key()
	h := fnv1a(key)
	for _, k := range d.buckets[h] {
		if k == key {
			return true
		}
	}
	d.buckets[h] = append(d.buckets[h], key)
	return false
}

// fnv1a is the 64-bit FNV-1a hash over the key bytes; inlined here to keep
// seen free of hash.Hash64 interface allocations.
func fnv1a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
