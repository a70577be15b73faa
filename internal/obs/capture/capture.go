// Package capture implements the workload journal: an always-on,
// low-overhead log of every completed query — full query specification,
// key effort counters, and an answer digest — framed so that a capture
// file is a first-class, replayable artifact. cmd/tsreplay re-runs a
// capture against a database and verifies every digest, turning "what
// production actually ran" into the regression workload every A/B is
// measured on.
//
// # File format (schema 2)
//
// The package is a record codec over internal/framelog, which owns the
// frame layout, the CRC, the scanner and the device. A capture file is
// the magic "TSQCAP02" (the trailing two bytes the schema version)
// followed by frames of two kinds, frameTransformSet (1) and frameQuery
// (2), whose payloads encoding.go writes and reads. Its stop policy has
// two halves: a writer reopening a file for append truncates whatever
// follows the last intact frame (the torn tail of a crash); a reader
// treats an input that ends inside a frame as a clean, flagged end but
// a complete frame with a bad checksum, or a length beyond
// maxFramePayload, as corruption — the distinction tsreplay's exit
// status reports.
//
// Query records do not embed their transformation set inline (a set of
// 24 transformations over length-128 series is ~100 KiB); instead the
// writer emits one frameTransformSet per distinct set per segment and
// queries reference it by content hash. Rotation clears the
// written-set memory, so every segment is self-contained.
//
// # Schema 1
//
// Schema 1 ("TSQCAP01") has the same frames. What changed is what an
// answer digest certifies: it hashes the float64 bits of every distance,
// and a schema-1 journal was written when every distance was the sum
// over f = 0..n-1 in index order, while a schema-2 writer sums half the
// spectrum under a symmetric transformation (transform.Verify), which
// differs in the last bits. A journal stores only the hash, so the two
// cannot be compared within a tolerance; instead the version says which
// sum to replay with. A Reader accepts both, reports which it found
// (Version), and hands out the transformations of a schema-1 journal
// unclassified, as transform.FullOrder leaves them: replayed under
// those, every kernel takes the full sum and reproduces the old bits.
// A Writer appends to schema-2 files only.
package capture

import (
	"math"

	"tsq/internal/transform"
)

// SchemaVersion identifies the capture file format. It is baked into
// the file magic, so a reader never guesses.
const SchemaVersion = 2

// fileMagic opens every capture file a Writer starts; the last two bytes
// spell the schema version.
var fileMagic = [8]byte{'T', 'S', 'Q', 'C', 'A', 'P', '0', '0' + SchemaVersion}

// magicVersion returns the schema version a file's magic spells, and
// whether it is one this package reads (1 or 2).
func magicVersion(magic [8]byte) (int, bool) {
	v := int(magic[7] - '0')
	magic[7] = fileMagic[7]
	return v, magic == fileMagic && (v == 1 || v == SchemaVersion)
}

// Kind is the captured query shape.
type Kind uint8

const (
	// KindRange is a similarity range query (Query 1).
	KindRange Kind = 1
	// KindNN is a k-nearest-neighbor query.
	KindNN Kind = 2
	// KindSubseq is a subsequence-matching search.
	KindSubseq Kind = 3
)

// String returns the kind's conventional name.
func (k Kind) String() string {
	switch k {
	case KindRange:
		return "range"
	case KindNN:
		return "nn"
	case KindSubseq:
		return "subseq"
	default:
		return "unknown"
	}
}

// OptionsRecord is the flattened QueryOptions of a captured query —
// everything replay needs to re-run it on the identical code path.
type OptionsRecord struct {
	Algorithm        uint8
	TransformsPerMBR int32
	Workers          int32
	ClusterPartition bool
	UseOrdering      bool
	PaperQueryRect   bool
	OneSided         bool
	NaiveVerify      bool
	// QueryTransform is recorded inline when set (it is one
	// transformation, not a set).
	QueryTransform *transform.Transform
}

// StatsRecord carries the captured query's key effort counters, the
// baseline the replay regression report diffs against.
type StatsRecord struct {
	DurationNs  int64
	Matches     int64
	Candidates  int64
	SkippedLB0  int64
	SkippedLB1  int64
	SkippedLB2  int64
	Abandoned   int64
	Comparisons int64
	// Page counters are process-global deltas observed around the
	// query; under concurrent load they include neighbors' I/O.
	PagesRead       int64
	PagesPrefetched int64
	BufferHits      int64
}

// SkippedLB returns the total lower-bound skips across cascade tiers.
func (s StatsRecord) SkippedLB() int64 {
	return s.SkippedLB0 + s.SkippedLB1 + s.SkippedLB2
}

// Record is one self-contained captured query.
type Record struct {
	QueryID  uint64
	Kind     Kind
	UnixNano int64

	// SeriesID names a stored series as the query point; -1 means the
	// query vector is inline in Query. QueryHash is the content hash of
	// the raw query values either way, so replay can verify that a
	// by-reference query still resolves to the same series.
	SeriesID  int64
	Query     []float64
	QueryHash uint64

	// SetHash references the transformation set (a frameTransformSet
	// earlier in the same segment); 0 means no set (subsequence search).
	SetHash uint64

	Eps    float64 // range/subseq threshold (resolved distance)
	K      int32   // NN k
	Window int32   // subseq window length

	Opts OptionsRecord

	// Digest is the answer digest; Err records a failed query (digest
	// is then empty and replay expects the same failure).
	Digest Digest
	Err    string

	Stats StatsRecord
}

// Digest is an order-insensitive checksum over a query's answer set:
// the result count plus the wrapping sum of one mixed hash per
// (id, transform, distance) answer tuple. Summation makes it
// independent of result order (parallel verification shards answers
// nondeterministically before the final sort) while distinct answer
// sets still collide with probability ~2^-64.
type Digest struct {
	Count uint32 `json:"count"`
	Sum   uint64 `json:"sum"`
}

// Add folds one answer tuple into the digest. Distances are compared
// bit-exactly: the engine's answer contract is bit-identical results
// across verification modes and worker counts, and the digest holds it
// to that.
func (d *Digest) Add(a, b int64, dist float64) {
	h := mix64(digestSeed ^ uint64(a))
	h = mix64(h ^ uint64(b))
	h = mix64(h ^ math.Float64bits(dist))
	d.Sum += h
	d.Count++
}

// digestSeed domain-separates answer-tuple hashes from the series and
// transform-set hashes built on the same mixer.
const digestSeed = 0x7473712d63617031 // "tsq-cap1"

// mix64 is the splitmix64 finalizer: a fast, well-distributed 64-bit
// mixer (Steele et al.), the building block of every hash here.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashFloats content-hashes a float vector (bit-exact, length-prefixed
// so a prefix never collides with its extension).
func HashFloats(vs []float64) uint64 {
	h := mix64(digestSeed ^ 0xf10a75 ^ uint64(len(vs)))
	for _, v := range vs {
		h = mix64(h ^ math.Float64bits(v))
	}
	return h
}

// hashString folds a string into a running hash 8 bytes at a time.
func hashString(h uint64, s string) uint64 {
	h = mix64(h ^ uint64(len(s)))
	var acc uint64
	var n uint
	for i := 0; i < len(s); i++ {
		acc |= uint64(s[i]) << (8 * n)
		if n++; n == 8 {
			h = mix64(h ^ acc)
			acc, n = 0, 0
		}
	}
	if n > 0 {
		h = mix64(h ^ acc)
	}
	return h
}

// HashTransform content-hashes one transformation (name and both
// coefficient vectors, bit-exact).
func HashTransform(h uint64, t *transform.Transform) uint64 {
	h = hashString(h, t.Name)
	h = mix64(h ^ uint64(len(t.A)))
	for _, v := range t.A {
		h = mix64(h ^ math.Float64bits(v))
	}
	for _, v := range t.B {
		h = mix64(h ^ math.Float64bits(v))
	}
	return h
}

// HashTransformSet content-hashes a transformation set. The writer
// uses it as the set's identity: queries reference the set by this
// hash and replay verifies it after decoding. Never returns 0 (0 is
// the "no set" sentinel in Record.SetHash).
func HashTransformSet(ts []transform.Transform) uint64 {
	h := mix64(digestSeed ^ 0x7e7a5e7 ^ uint64(len(ts)))
	for i := range ts {
		h = HashTransform(h, &ts[i])
	}
	if h == 0 {
		h = 1
	}
	return h
}
