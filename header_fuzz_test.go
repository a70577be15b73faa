package tsq

import (
	"encoding/binary"
	"os"
	"strings"
	"testing"
)

// superblockSeed returns the start of the superblock page of the page
// file at path, where decodeSuper reads it: physical page 1, whose
// logical bytes come first whether or not the page carries a checksum.
func superblockSeed(tb testing.TB, path string) []byte {
	tb.Helper()
	pageSize, _, err := readRawHeader(path)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b[pageSize : pageSize+64]
}

// withK returns a copy of a superblock or manifest seed whose k field, at
// offset at, is k.
func withK(seed []byte, at int, k uint32) []byte {
	out := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(out[at:], k)
	return out
}

// namedError fails the test unless err is one of the decoders' own: a
// message that says it comes from this package.
func namedError(t *testing.T, err error) {
	t.Helper()
	if !strings.HasPrefix(err.Error(), "tsq: ") {
		t.Fatalf("unnamed error %q", err)
	}
}

// FuzzDecodeSuper: a superblock decodes or is a named error, never a
// panic, and what decodes is what BuildIndex could have written (0 < 2k
// < n, both root pages set) and encodes back to itself. The input is the
// start of the smallest page a file can have. Seeds are the superblocks
// of the checked-in files and, from the first, headers whose k is n/2 or
// n, which the decoder once accepted.
func FuzzDecodeSuper(f *testing.F) {
	for _, path := range []string{"testdata/pr13.tsq", "testdata/sharded2.tsq.shard0", "testdata/sharded2.tsq.shard1"} {
		f.Add(superblockSeed(f, path))
	}
	seed := superblockSeed(f, "testdata/pr13.tsq")
	n := binary.LittleEndian.Uint32(seed[4:])
	f.Add(withK(seed, 8, n/2))
	f.Add(withK(seed, 8, n))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		page := make([]byte, 512)
		copy(page, data)
		si, err := decodeSuper(page)
		if err != nil {
			namedError(t, err)
			return
		}
		if err := si.check(); err != nil || si.treeMeta == 0 || si.heapDir == 0 {
			t.Fatalf("accepted %+v (%v)", si, err)
		}
		again := make([]byte, 512)
		encodeSuper(again, si)
		if back, err := decodeSuper(again); err != nil || back != si {
			t.Fatalf("%+v re-encodes to %+v (%v)", si, back, err)
		}
	})
}

// FuzzDecodeManifest: a shard manifest decodes or is a named error, never
// a panic, and what decodes satisfies the same checks as a superblock and
// encodes back to itself. Seeds are the checked-in two-shard manifest,
// copies whose k is n/2 or n with the checksum recomputed, and a
// truncated one.
func FuzzDecodeManifest(f *testing.F) {
	b, err := os.ReadFile("testdata/sharded2.tsq")
	if err != nil {
		f.Fatal(err)
	}
	mi, err := decodeManifest(b)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	for _, k := range []int{mi.n / 2, mi.n} {
		bad := mi
		bad.k = k
		f.Add(encodeManifest(bad))
	}
	f.Add(b[:manifestSize-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		mi, err := decodeManifest(data)
		if err != nil {
			namedError(t, err)
			return
		}
		if err := mi.check(); err != nil {
			t.Fatalf("accepted %+v (%v)", mi, err)
		}
		if back, err := decodeManifest(encodeManifest(mi)); err != nil || back != mi {
			t.Fatalf("%+v re-encodes to %+v (%v)", mi, back, err)
		}
	})
}
