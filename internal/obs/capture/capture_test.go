package capture

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"tsq/internal/framelog"
	"tsq/internal/framelog/framelogtest"
	"tsq/internal/transform"
)

// testSet builds a small distinct transformation set for length-n
// series; salt makes sets with different salts hash differently.
func testSet(n, count, salt int) []transform.Transform {
	ts := transform.MovingAverageSet(n, 2+salt, 2+salt+count-1)
	return ts
}

// fullRecord exercises every field of the query payload.
func fullRecord() *Record {
	qt := transform.MovingAverage(16, 3)
	return &Record{
		QueryID:   42,
		Kind:      KindRange,
		UnixNano:  1722800000123456789,
		SeriesID:  -1,
		Query:     []float64{1.5, -2.25, 0, 3.75e-9, 1e300},
		QueryHash: HashFloats([]float64{1.5, -2.25, 0, 3.75e-9, 1e300}),
		SetHash:   0xdeadbeefcafe,
		Eps:       0.3125,
		K:         7,
		Window:    16,
		Opts: OptionsRecord{
			Algorithm:        3,
			TransformsPerMBR: 8,
			Workers:          4,
			ClusterPartition: true,
			UseOrdering:      true,
			PaperQueryRect:   true,
			OneSided:         true,
			NaiveVerify:      true,
			QueryTransform:   &qt,
		},
		Digest: Digest{Count: 3, Sum: 0x123456789abcdef0},
		Stats: StatsRecord{
			DurationNs: 12345, Matches: 3, Candidates: 19,
			SkippedLB0: 2, SkippedLB1: 5, SkippedLB2: 1,
			Abandoned: 4, Comparisons: 13,
			PagesRead: 9, PagesPrefetched: 2, BufferHits: 31,
		},
	}
}

func TestQueryPayloadRoundTrip(t *testing.T) {
	cases := map[string]*Record{
		"full": fullRecord(),
		"minimal": {
			QueryID: 1, Kind: KindRange, SeriesID: 10,
			QueryHash: 0x99, Eps: 1.25, Digest: Digest{Count: 1, Sum: 7},
		},
		"nn": {
			QueryID: 2, Kind: KindNN, SeriesID: -1,
			Query: []float64{0.5, 0.25}, QueryHash: 0x1, K: 5,
			Digest: Digest{Count: 5, Sum: 0xabc},
		},
		"subseq": {
			QueryID: 3, Kind: KindSubseq, SeriesID: -1,
			Query: []float64{1, 2, 3}, QueryHash: 0x2, Eps: 0.5, Window: 3,
			Digest: Digest{Count: 2, Sum: 0xdef},
		},
		"errored": {
			QueryID: 4, Kind: KindRange, SeriesID: 3,
			QueryHash: 0x3, Eps: 2, Err: "query length 31 != series length 32",
		},
	}
	for name, rec := range cases {
		t.Run(name, func(t *testing.T) {
			b := appendQueryPayload(nil, rec)
			got, err := decodeQueryPayload(b, SchemaVersion)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, rec) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, rec)
			}
		})
	}
}

func TestQueryPayloadRejectsMutations(t *testing.T) {
	b := appendQueryPayload(nil, fullRecord())
	if _, err := decodeQueryPayload(append(b[:len(b):len(b)], 0), SchemaVersion); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := decodeQueryPayload(b[:len(b)-1], SchemaVersion); err == nil {
		t.Error("truncated payload accepted")
	}
	bad := fullRecord()
	bad.Kind = 9
	if _, err := decodeQueryPayload(appendQueryPayload(nil, bad), SchemaVersion); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestReservedFlagBitIgnored: a journal written while QueryOptions.FlatLB
// existed sets flag bit 5; it decodes to the same record as without.
func TestReservedFlagBitIgnored(t *testing.T) {
	rec := fullRecord()
	b := appendQueryPayload(nil, rec)
	flagsAt := 8 + 1 + 8 + 8 + 4 + 8*len(rec.Query) + 8 + 8 + 8 + 4 + 4
	if b[flagsAt]&(1<<5) != 0 {
		t.Fatal("the writer set the reserved flag bit")
	}
	b[flagsAt] |= 1 << 5
	got, err := decodeQueryPayload(b, SchemaVersion)
	if err != nil || !reflect.DeepEqual(got, rec) {
		t.Fatalf("with the reserved bit set: %v\n got %+v\nwant %+v", err, got, rec)
	}
}

func TestSetPayloadRoundTrip(t *testing.T) {
	ts := testSet(32, 4, 0)
	hash := HashTransformSet(ts)
	b := appendSetPayload(nil, hash, ts)
	gotHash, gotTS, err := decodeSetPayload(b, SchemaVersion)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if gotHash != hash || !reflect.DeepEqual(gotTS, ts) {
		t.Error("set round trip mismatch")
	}
	// A definition whose embedded hash disagrees with its content must
	// be rejected, not silently trusted.
	if _, _, err := decodeSetPayload(appendSetPayload(nil, hash^1, ts), SchemaVersion); err == nil {
		t.Error("hash-mismatched set accepted")
	}
}

func TestDigestOrderInsensitiveNoCancel(t *testing.T) {
	var a, b Digest
	a.Add(1, 0, 0.5)
	a.Add(2, 3, 1.5)
	a.Add(7, 1, -1)
	b.Add(7, 1, -1)
	b.Add(1, 0, 0.5)
	b.Add(2, 3, 1.5)
	if a != b {
		t.Error("digest depends on answer order")
	}
	// Duplicates accumulate (wrapping sum, not XOR): a doubled answer
	// set must not digest equal to the original.
	var twice Digest
	for i := 0; i < 2; i++ {
		twice.Add(1, 0, 0.5)
		twice.Add(2, 3, 1.5)
		twice.Add(7, 1, -1)
	}
	if twice.Sum == a.Sum {
		t.Error("duplicated answers cancel out")
	}
	var c Digest
	c.Add(1, 0, 0.5000001)
	c.Add(2, 3, 1.5)
	c.Add(7, 1, -1)
	if a == c {
		t.Error("distance perturbation not detected")
	}
}

func TestHashTransformSetDistinct(t *testing.T) {
	h1 := HashTransformSet(testSet(32, 4, 0))
	h2 := HashTransformSet(testSet(32, 4, 1))
	h3 := HashTransformSet(testSet(32, 5, 0))
	if h1 == h2 || h1 == h3 || h2 == h3 {
		t.Errorf("set hash collision: %#x %#x %#x", h1, h2, h3)
	}
	if HashTransformSet(nil) == 0 {
		t.Error("set hash 0 collides with the no-set sentinel")
	}
}

// writeTestCapture writes records through a fresh writer and returns
// what Append stamped into them.
func writeTestCapture(t *testing.T, path string, opts Options, n int, ts []transform.Transform) []*Record {
	t.Helper()
	w, err := NewWriter(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*Record, 0, n)
	for i := 0; i < n; i++ {
		if !w.Admit() {
			continue
		}
		rec := &Record{
			QueryID: uint64(i + 1), Kind: KindRange, SeriesID: int64(i),
			QueryHash: mix64(uint64(i)), Eps: float64(i) + 0.5,
			Digest: Digest{Count: uint32(i), Sum: mix64(uint64(i) ^ 0xabc)},
			Stats:  StatsRecord{Matches: int64(i), Candidates: int64(2 * i)},
		}
		w.Append(rec, ts)
		recs = append(recs, rec)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// readAll drains a capture file, failing the test on any corruption.
func readAll(t *testing.T, path string) ([]*Record, bool) {
	t.Helper()
	r, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var recs []*Record
	for {
		rec, _, err := r.Next()
		if err == io.EOF {
			return recs, r.Truncated()
		}
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		recs = append(recs, rec)
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rt.tscap")
	ts := testSet(32, 4, 0)
	want := writeTestCapture(t, path, Options{}, 10, ts)

	r, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; ; i++ {
		rec, gotTS, err := r.Next()
		if err == io.EOF {
			if i != len(want) {
				t.Fatalf("read %d records, want %d", i, len(want))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rec, want[i]) {
			t.Errorf("record %d mismatch:\n got %+v\nwant %+v", i, rec, want[i])
		}
		if !reflect.DeepEqual(gotTS, ts) {
			t.Errorf("record %d resolved wrong transform set", i)
		}
	}
	if r.Truncated() {
		t.Error("clean file reported truncated")
	}
	if len(r.Sets()) != 1 {
		t.Errorf("defined %d sets, want 1 (interning failed)", len(r.Sets()))
	}
}

func TestWriterInternsSetsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reopen.tscap")
	ts := testSet(32, 4, 0)
	writeTestCapture(t, path, Options{}, 3, ts)

	// A second writer must relearn the set from the existing file and
	// not redefine it for appended queries.
	w, err := NewWriter(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.Admit()
	w.Append(&Record{QueryID: 100, Kind: KindRange, SeriesID: 1, Eps: 1}, ts)
	st := w.Stats()
	if st.TransformSets != 0 {
		t.Errorf("reopened writer redefined %d sets", st.TransformSets)
	}
	if st.TruncatedTail != 0 {
		t.Errorf("clean reopen truncated %d bytes", st.TruncatedTail)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, truncated := readAll(t, path)
	if len(recs) != 4 || truncated {
		t.Fatalf("got %d records (truncated=%v), want 4 clean", len(recs), truncated)
	}
	if recs[3].SetHash != recs[0].SetHash || recs[3].SetHash == 0 {
		t.Error("appended record lost its set reference")
	}
}

func TestTornTailTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	ts := testSet(32, 4, 0)
	pristine := filepath.Join(dir, "pristine.tscap")
	writeTestCapture(t, pristine, Options{}, 5, ts)
	whole, err := os.ReadFile(pristine)
	if err != nil {
		t.Fatal(err)
	}
	// Find the start of the last frame so cuts land strictly inside it.
	recs, _ := readAll(t, pristine)
	if len(recs) != 5 {
		t.Fatalf("setup: %d records", len(recs))
	}

	for _, cut := range []int{1, 3, 10} { // torn CRC, torn payload, deeper tear
		path := filepath.Join(dir, "torn.tscap")
		if err := os.WriteFile(path, whole[:len(whole)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := NewWriter(path, Options{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := w.Stats().TruncatedTail; got <= 0 {
			t.Errorf("cut %d: truncated %d bytes, want > 0", cut, got)
		}
		w.Admit()
		w.Append(&Record{QueryID: 999, Kind: KindRange, SeriesID: 0, Eps: 1}, ts)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, truncated := readAll(t, path)
		if truncated {
			t.Errorf("cut %d: repaired file still reads as truncated", cut)
		}
		if len(got) != 5 || got[4].QueryID != 999 {
			t.Fatalf("cut %d: got %d records (last qid %d), want 4 intact + 1 appended",
				cut, len(got), got[len(got)-1].QueryID)
		}
		if !reflect.DeepEqual(got[:4], recs[:4]) {
			t.Errorf("cut %d: surviving prefix corrupted", cut)
		}
	}
}

func TestReaderTornTailVsCorruption(t *testing.T) {
	dir := t.TempDir()
	ts := testSet(32, 4, 0)
	pristine := filepath.Join(dir, "p.tscap")
	writeTestCapture(t, pristine, Options{}, 4, ts)
	whole, err := os.ReadFile(pristine)
	if err != nil {
		t.Fatal(err)
	}

	// An incomplete final frame is a clean, flagged end.
	torn := filepath.Join(dir, "torn.tscap")
	if err := os.WriteFile(torn, whole[:len(whole)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, truncated := readAll(t, torn)
	if len(recs) != 3 || !truncated {
		t.Errorf("torn tail: %d records truncated=%v, want 3 records truncated=true", len(recs), truncated)
	}

	// A complete frame with a flipped byte is corruption.
	corrupt := filepath.Join(dir, "corrupt.tscap")
	mutated := append([]byte(nil), whole...)
	mutated[len(mutated)/2] ^= 0x40
	if err := os.WriteFile(corrupt, mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFile(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for {
		_, _, err := r.Next()
		if err == nil {
			continue
		}
		if err == io.EOF {
			t.Fatal("mid-file corruption read as clean EOF")
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("corruption error %v does not wrap ErrCorrupt", err)
		}
		break
	}
}

func TestWriterRefusesForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(path, []byte("not a capture file, do not clobber"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewWriter(path, Options{}); err == nil {
		t.Fatal("writer accepted a foreign file")
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "not a capture file, do not clobber" {
		t.Error("foreign file was modified")
	}
	if _, err := OpenFile(path); err == nil {
		t.Error("reader accepted a foreign file")
	}
}

func TestRotationKeepsSegmentsSelfContained(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rot.tscap")
	ts := testSet(32, 4, 0)
	w, err := NewWriter(path, Options{MaxBytes: 2048, MaxFiles: 3})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		w.Admit()
		w.Append(&Record{QueryID: uint64(i), Kind: KindRange, SeriesID: int64(i), Eps: 1}, ts)
	}
	st := w.Stats()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Rotations < 2 {
		t.Fatalf("only %d rotations over %d records at MaxBytes=2048", st.Rotations, n)
	}
	// Every surviving segment must resolve its own set references: the
	// reader sees one file at a time, so rotation must re-emit the set
	// definition at the head of each fresh segment.
	total := 0
	for _, p := range []string{path, path + ".1", path + ".2", path + ".3"} {
		if _, err := os.Stat(p); err != nil {
			continue
		}
		recs, truncated := readAll(t, p)
		if truncated {
			t.Errorf("%s: truncated", p)
		}
		for _, rec := range recs {
			if rec.SetHash == 0 {
				t.Errorf("%s: record %d lost its set", p, rec.QueryID)
			}
		}
		total += len(recs)
	}
	if _, err := os.Stat(path + ".4"); err == nil {
		t.Error("segment beyond MaxFiles retained")
	}
	if total == 0 || total > n {
		t.Errorf("segments hold %d records, want (0, %d]", total, n)
	}
}

func TestAdmitSampling(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.tscap")
	w, err := NewWriter(path, Options{SampleEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	admitted := 0
	for i := 0; i < 9; i++ {
		if w.Admit() {
			admitted++
			w.Append(&Record{QueryID: uint64(i), Kind: KindRange, Eps: 1}, nil)
		}
	}
	st := w.Stats()
	if admitted != 3 || st.Seen != 9 || st.SampledOut != 6 || st.Written != 3 {
		t.Errorf("admitted=%d seen=%d sampled_out=%d written=%d, want 3/9/6/3",
			admitted, st.Seen, st.SampledOut, st.Written)
	}
	if st.Seen != st.Written+st.SampledOut+st.Dropped {
		t.Errorf("accounting invariant broken: %+v", st)
	}
}

func TestAppendAfterCloseDrops(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.tscap")
	w, err := NewWriter(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w.Admit()
	w.Append(&Record{QueryID: 1, Kind: KindRange, Eps: 1}, nil)
	if st := w.Stats(); st.Dropped != 1 {
		t.Errorf("dropped=%d, want 1", st.Dropped)
	}
}

func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conc.tscap")
	w, err := NewWriter(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := testSet(32, 4, 0)
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if !w.Admit() {
					continue
				}
				w.Append(&Record{
					QueryID: uint64(g*perWorker + i), Kind: KindRange,
					SeriesID: int64(i), Eps: 0.5,
					Digest: Digest{Count: 1, Sum: mix64(uint64(g*perWorker + i))},
				}, ts)
			}
		}(g)
	}
	wg.Wait()
	st := w.Stats()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Seen != workers*perWorker || st.Written != workers*perWorker || st.Dropped != 0 {
		t.Fatalf("seen=%d written=%d dropped=%d, want %d/%d/0",
			st.Seen, st.Written, st.Dropped, workers*perWorker, workers*perWorker)
	}
	recs, truncated := readAll(t, path)
	if len(recs) != workers*perWorker || truncated {
		t.Fatalf("read %d records truncated=%v, want %d clean", len(recs), truncated, workers*perWorker)
	}
	seen := make(map[uint64]bool, len(recs))
	for _, rec := range recs {
		if seen[rec.QueryID] {
			t.Fatalf("query %d journaled twice", rec.QueryID)
		}
		seen[rec.QueryID] = true
	}
}

// sweptWriter adapts a Writer to the shared crash sweep.
type sweptWriter struct {
	*Writer
	ts []transform.Transform
}

func sweepRecord(i int) *Record {
	return &Record{QueryID: uint64(i + 1), Kind: KindRange, SeriesID: int64(i), Eps: float64(i) + 0.5,
		Digest: Digest{Count: uint32(i), Sum: mix64(uint64(i))}}
}

func (w sweptWriter) Append(i int) error {
	w.Admit()
	w.Writer.Append(sweepRecord(i), w.ts)
	return nil // a dropped record shows in Sync, or as a hole in the prefix
}

// TestFaultSweepAppend is the journal's instantiation of the framelog crash
// sweep, on the same device the WAL is swept on: a crash or torn write at
// every device op of creating a journal and appending six queries (the
// first with its set definition) with a Sync after each. Every query a
// Sync acknowledged must be read back, in order, from a file the reader
// finds at worst truncated, never corrupt, and a reopening writer must
// repair the tail without losing one.
func TestFaultSweepAppend(t *testing.T) {
	ts := testSet(16, 2, 0)
	framelogtest.Sweep(t, framelogtest.Codec{
		Appends: 6,
		Open: func(dev framelog.Device) (framelogtest.Log, error) {
			w, err := newWriter("swept.tscap", Options{}, func(string) (framelog.Device, error) { return dev, nil })
			return sweptWriter{w, ts}, err
		},
		Recovered: func(path string) (int, error) {
			if st, err := os.Stat(path); err != nil || st.Size() < framelog.MagicSize {
				return 0, err // torn while being created: nothing inside
			}
			r, err := OpenFile(path)
			if err != nil {
				return 0, err
			}
			defer r.Close()
			for n := 0; ; n++ {
				rec, gotTS, err := r.Next()
				if err == io.EOF {
					return n, nil
				}
				if err != nil {
					return n, err
				}
				want := sweepRecord(n)
				want.SetHash = rec.SetHash
				if !reflect.DeepEqual(rec, want) || !reflect.DeepEqual(gotTS, ts) {
					return n, fmt.Errorf("recovered record %d diverges from the workload", n)
				}
			}
		},
	})
}

// FuzzReader feeds arbitrary file contents to the reader: it must never
// panic, and must terminate with EOF or a corruption error.
func FuzzReader(f *testing.F) {
	ts := testSet(16, 2, 0)
	dir := f.TempDir()
	valid := filepath.Join(dir, "seed.tscap")
	w, err := NewWriter(valid, Options{})
	if err != nil {
		f.Fatal(err)
	}
	w.Admit()
	w.Append(&Record{QueryID: 1, Kind: KindRange, SeriesID: 2, Eps: 1.5,
		Digest: Digest{Count: 2, Sum: 99}}, ts)
	w.Admit()
	w.Append(&Record{QueryID: 2, Kind: KindSubseq, SeriesID: -1,
		Query: []float64{1, 2, 3}, Window: 3, Eps: 0.5}, nil)
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	whole, err := os.ReadFile(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(whole)
	f.Add(whole[:len(whole)-3])
	mutated := append([]byte(nil), whole...)
	mutated[len(mutated)/2] ^= 1
	f.Add(mutated)
	old := append([]byte(nil), whole...)
	old[7] = '1' // the same frames as a schema-1 file: the unclassified decode path
	f.Add(old)
	f.Add([]byte("TSQCAP01"))
	f.Add([]byte("TSQCAP02"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		path := filepath.Join(t.TempDir(), "fuzz.tscap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenFile(path)
		if err != nil {
			return // bad magic: rejected up front
		}
		defer r.Close()
		for {
			_, _, err := r.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("non-corruption mid-stream error: %v", err)
				}
				return
			}
		}
	})
}

// FuzzDecodeQueryPayload checks the payload decoder never panics and
// that anything it accepts re-encodes to an equivalent record.
func FuzzDecodeQueryPayload(f *testing.F) {
	f.Add(appendQueryPayload(nil, fullRecord()))
	f.Add(appendQueryPayload(nil, &Record{QueryID: 1, Kind: KindNN, SeriesID: -1, K: 3}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeQueryPayload(data, SchemaVersion)
		if err != nil {
			return
		}
		again, err := decodeQueryPayload(appendQueryPayload(nil, rec), SchemaVersion)
		if err != nil {
			t.Fatalf("re-decode of accepted record failed: %v", err)
		}
		if !reflect.DeepEqual(rec, again) {
			t.Errorf("decode/encode/decode not idempotent:\n %+v\n %+v", rec, again)
		}
	})
}

// TestSchemaVersions: a reader takes both schema versions and says which
// it found; the transformations of a schema-2 file come back classified
// as the writer's were, those of a schema-1 file unclassified (full-order
// sums, as its digests were taken); a writer appends to neither a
// schema-1 file nor a file of an unknown version.
func TestSchemaVersions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.tscap")
	ts := testSet(32, 4, 0)
	writeTestCapture(t, path, Options{}, 3, ts)
	first := func() (int, []transform.Transform) {
		t.Helper()
		r, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		_, got, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		return r.Version(), got
	}
	if v, got := first(); v != SchemaVersion || !reflect.DeepEqual(got, ts) || !got[0].Symmetric(false) {
		t.Fatalf("fresh file: schema %d, set classified as written: %v", v, reflect.DeepEqual(got, ts))
	}
	setVersion := func(c byte) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt([]byte{c}, 7); err != nil {
			t.Fatal(err)
		}
	}
	setVersion('1')
	v, got := first()
	if v != 1 || len(got) != len(ts) {
		t.Fatalf("schema-1 file: version %d, %d transformations", v, len(got))
	}
	for i := range got {
		if got[i].Symmetric(false) || got[i].Symmetric(true) || !reflect.DeepEqual(got[i].A, ts[i].A) || !reflect.DeepEqual(got[i].B, ts[i].B) {
			t.Fatalf("schema-1 file: %s came back classified, or with other vectors", got[i].Name)
		}
	}
	if w, err := NewWriter(path, Options{}); err == nil {
		_ = w.Close()
		t.Fatal("a writer opened a schema-1 file for append")
	}
	setVersion('3')
	if r, err := OpenFile(path); err == nil {
		_ = r.Close()
		t.Fatal("a reader opened a schema-3 file")
	}
	if w, err := NewWriter(path, Options{}); err == nil {
		_ = w.Close()
		t.Fatal("a writer opened a schema-3 file")
	}
}
