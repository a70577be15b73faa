package capture

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"tsq/internal/transform"
)

// TestGoldenBytes pins the journal's on-disk bytes: magic, frame layout, set
// and query payloads, for one set frame and two query frames of exactly
// representable numbers. The literal is the hash of the file the commit
// before internal/framelog existed wrote for the same appends (taken from a
// checkout of that commit), so "the format did not move" is checked, not
// asserted. A change to it is a format change: bump SchemaVersion.
func TestGoldenBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.tscap")
	w, err := NewWriter(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := []transform.Transform{
		transform.New("half", []float64{0.5, 1, 0.25, 1, 0.5, 1, 0.25, 1}, []float64{0, 0, 0, 0.125, 0, 0, 0, -0.125}),
		transform.Identity(4),
	}
	qt := transform.Identity(4)
	w.Append(&Record{
		QueryID: 7, Kind: KindRange, UnixNano: 1722800000123456789, SeriesID: 3,
		QueryHash: 0x1122334455667788, Eps: 0.375,
		Opts:   OptionsRecord{Algorithm: 2, TransformsPerMBR: 8, Workers: 4, UseOrdering: true, OneSided: true, QueryTransform: &qt},
		Digest: Digest{Count: 2, Sum: 0xfeedfacecafebeef},
		Stats: StatsRecord{DurationNs: 1500, Matches: 2, Candidates: 9, SkippedLB0: 1, SkippedLB1: 2, SkippedLB2: 3,
			Abandoned: 4, Comparisons: 5, PagesRead: 6, PagesPrefetched: 7, BufferHits: 8},
	}, ts)
	w.Append(&Record{
		QueryID: 8, Kind: KindNN, UnixNano: 1722800000123456790, SeriesID: -1,
		Query: []float64{1, -2, 0.5, 4}, QueryHash: 0x99, K: 3,
		Opts: OptionsRecord{NaiveVerify: true}, Err: "query length 4 != series length 8",
	}, ts)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Written != 2 || st.TransformSets != 1 || st.Dropped != 0 {
		t.Fatalf("wrote %+v, want one set frame and two query frames", st)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	const want = "f33d18baceba3c07332396fb8a8d2c04c9b02334d1fa4b43b60c9051a71cc12b"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("the journal is %d bytes hashing to %s, want %s", len(data), got, want)
	}
}
