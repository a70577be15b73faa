package tsq

// End-to-end sharding tests through the public API: answer parity
// across shard counts on every query surface, the sharded file layout
// (manifest + per-shard files) and its corruption handling, capture
// portability (a workload captured on a 1-shard DB replays digest-clean
// against a 4-shard build), and the shard sections of the health
// endpoint.

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tsq/internal/datagen"
)

// shardCounts is the sweep every parity test runs over.
var shardCounts = []int{1, 2, 4}

func openShardedTestDB(t testing.TB, seed int64, count, n, shards int) *DB {
	t.Helper()
	db, err := Open(datagen.RandomWalks(seed, count, n), nil, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func sortNNMatches(ms []NNMatch) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Distance != ms[j].Distance {
			return ms[i].Distance < ms[j].Distance
		}
		if ms[i].RecordID != ms[j].RecordID {
			return ms[i].RecordID < ms[j].RecordID
		}
		return ms[i].TransformIdx < ms[j].TransformIdx
	})
}

func sortJoinMatches(ms []JoinMatch) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].IDA != ms[j].IDA {
			return ms[i].IDA < ms[j].IDA
		}
		if ms[i].IDB != ms[j].IDB {
			return ms[i].IDB < ms[j].IDB
		}
		return ms[i].TransformIdx < ms[j].TransformIdx
	})
}

// TestShardedDBAnswerParity: every public query surface returns the
// same answer at every shard count.
func TestShardedDBAnswerParity(t *testing.T) {
	const n = 64
	base := openShardedTestDB(t, 3, 150, n, 1)
	ts := MovingAverages(n, 5, 20)
	thr := Correlation(0.92)
	q := base.Get(9)

	wantRange := map[Algorithm][]Match{}
	for _, alg := range []Algorithm{MTIndex, STIndex, SeqScan, Auto} {
		m, _, err := base.Range(q, ts, thr, QueryOptions{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		SortMatches(m)
		wantRange[alg] = m
	}
	if len(wantRange[MTIndex]) == 0 {
		t.Fatal("workload produced no matches; parity is vacuous")
	}
	wantNN, _, err := base.NearestNeighbors(q, ts, 5, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sortNNMatches(wantNN)
	wantJoin, _, err := base.Join(ts[:4], thr, QueryOptions{Algorithm: MTIndex})
	if err != nil {
		t.Fatal(err)
	}
	sortJoinMatches(wantJoin)
	wantPairs, _, err := base.ClosestPairs(ts[:4], 5, MTIndex)
	if err != nil {
		t.Fatal(err)
	}
	wantRaw, _, err := base.RawRange(q, 25, true)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(wantRaw, func(i, j int) bool { return wantRaw[i].RecordID < wantRaw[j].RecordID })

	for _, shards := range shardCounts[1:] {
		db := openShardedTestDB(t, 3, 150, n, shards)
		if db.Shards() != shards {
			t.Fatalf("Shards() = %d, want %d", db.Shards(), shards)
		}
		info, err := db.Info()
		if err != nil {
			t.Fatal(err)
		}
		if info.Shards != shards || info.Series != 150 {
			t.Fatalf("Info = %+v", info)
		}
		for alg, want := range wantRange {
			got, _, err := db.Range(q, ts, thr, QueryOptions{Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			SortMatches(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%d shards %v: range mismatch (%d vs %d)", shards, alg, len(got), len(want))
			}
		}
		gotNN, _, err := db.NearestNeighbors(q, ts, 5, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sortNNMatches(gotNN)
		if !reflect.DeepEqual(gotNN, wantNN) {
			t.Errorf("%d shards: NN mismatch\n got %+v\nwant %+v", shards, gotNN, wantNN)
		}
		gotJoin, _, err := db.Join(ts[:4], thr, QueryOptions{Algorithm: MTIndex})
		if err != nil {
			t.Fatal(err)
		}
		sortJoinMatches(gotJoin)
		if !reflect.DeepEqual(gotJoin, wantJoin) {
			t.Errorf("%d shards: join mismatch (%d vs %d)", shards, len(gotJoin), len(wantJoin))
		}
		gotPairs, _, err := db.ClosestPairs(ts[:4], 5, MTIndex)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotPairs, wantPairs) {
			t.Errorf("%d shards: closest pairs mismatch\n got %+v\nwant %+v", shards, gotPairs, wantPairs)
		}
		gotRaw, _, err := db.RawRange(q, 25, true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotRaw, wantRaw) {
			t.Errorf("%d shards: raw range mismatch", shards)
		}
		if _, err := db.Explain(q, ts, thr); err != nil {
			t.Errorf("%d shards: explain: %v", shards, err)
		}
		if err := db.Verify(); err != nil {
			t.Errorf("%d shards: verify: %v", shards, err)
		}

		// Batch runs each request through the facade over the sharded engine.
		reqs := []BatchRequest{
			{ByID: true, ID: 9, Transforms: ts, Threshold: thr},
			{Query: q, Transforms: ts, K: 5},
			{ByID: true, ID: 3, Transforms: ts, Threshold: thr, Opts: QueryOptions{Algorithm: SeqScan}},
		}
		res := db.Batch(context.Background(), reqs, 2)
		baseRes := base.Batch(context.Background(), reqs, 2)
		for i := range res {
			if res[i].Err != nil || baseRes[i].Err != nil {
				t.Fatalf("%d shards: batch[%d] err %v / %v", shards, i, res[i].Err, baseRes[i].Err)
			}
			gm, wm := res[i].Matches, baseRes[i].Matches
			SortMatches(gm)
			SortMatches(wm)
			if !reflect.DeepEqual(gm, wm) {
				t.Errorf("%d shards: batch[%d] range mismatch", shards, i)
			}
			gn, wn := res[i].NN, baseRes[i].NN
			sortNNMatches(gn)
			sortNNMatches(wn)
			if !reflect.DeepEqual(gn, wn) {
				t.Errorf("%d shards: batch[%d] NN mismatch", shards, i)
			}
		}
	}
}

// TestShardedFileRoundTrip: CreateFile with Shards writes per-shard
// page files behind a manifest, OpenFile reassembles them, answers
// match the single-file build, and the scrubber passes the set.
func TestShardedFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ss := datagen.RandomWalks(21, 120, 64)
	ts := MovingAverages(64, 5, 16)
	thr := Correlation(0.92)

	single, err := CreateFile(filepath.Join(dir, "single.tsq"), ss, nil, Options{PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	q := single.Get(7)
	want, _, err := single.Range(q, ts, thr, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	SortMatches(want)

	path := filepath.Join(dir, "sharded.tsq")
	db, err := CreateFile(path, ss, nil, Options{PageSize: 2048, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	info, err := db.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Shards != 4 || !info.Paged {
		t.Fatalf("Info = %+v", info)
	}
	got, _, err := db.Range(q, ts, thr, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	SortMatches(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("created sharded file: range mismatch (%d vs %d)", len(got), len(want))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The on-disk layout: a tiny manifest plus 4 complete shard files.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() >= 2048 {
		t.Errorf("manifest is %d bytes; expected a small record, not a page file", st.Size())
	}
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(shardPath(path, i)); err != nil {
			t.Errorf("shard file %d missing: %v", i, err)
		}
	}

	re, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Shards() != 4 || re.Len() != 120 {
		t.Fatalf("reopened: Shards=%d Len=%d", re.Shards(), re.Len())
	}
	got2, _, err := re.Range(q, ts, thr, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	SortMatches(got2)
	if !reflect.DeepEqual(got2, want) {
		t.Fatalf("reopened sharded file: range mismatch")
	}
	if err := re.Verify(); err != nil {
		t.Fatal(err)
	}

	// Inserts route through the manifest-less layout (the mapping is a
	// pure function of the count, so no metadata goes stale).
	id, err := re.Insert("new", datagen.RandomWalks(5, 1, 64)[0])
	if err != nil {
		t.Fatal(err)
	}
	if id != 120 {
		t.Fatalf("insert assigned id %d, want 120", id)
	}
	if err := re.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen again: the inserted record must be back, on its shard.
	re2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Len() != 121 {
		t.Fatalf("after insert+reopen: Len=%d, want 121", re2.Len())
	}
	if err := re2.Verify(); err != nil {
		t.Fatal(err)
	}

	r, err := CheckFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Fatalf("scrub of healthy sharded DB:\n%s", r)
	}
	if r.ShardCount != 4 || len(r.Shards) != 4 {
		t.Fatalf("scrub report: ShardCount=%d len(Shards)=%d", r.ShardCount, len(r.Shards))
	}
}

// TestShardedFileCorruption: every way a shard set can be damaged must
// surface as a shard-identifying rejection, never a partially-visible
// or silently-wrong database.
func TestShardedFileCorruption(t *testing.T) {
	newSharded := func(t *testing.T) string {
		dir := t.TempDir()
		path := filepath.Join(dir, "c.tsq")
		db, err := CreateFile(path, datagen.RandomWalks(33, 60, 32), nil, Options{PageSize: 2048, Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}

	t.Run("missing-shard-file", func(t *testing.T) {
		path := newSharded(t)
		if err := os.Remove(shardPath(path, 1)); err != nil {
			t.Fatal(err)
		}
		_, err := OpenFile(path)
		if err == nil {
			t.Fatal("opened with a missing shard file")
		}
		if !strings.Contains(err.Error(), "shard 1") {
			t.Errorf("error does not name the shard: %v", err)
		}
		r, cerr := CheckFile(path)
		if cerr != nil {
			t.Fatal(cerr)
		}
		if r.OK() {
			t.Fatalf("scrub says OK with a missing shard:\n%s", r)
		}
	})

	t.Run("torn-manifest", func(t *testing.T) {
		path := newSharded(t)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[20] ^= 0xff // flags byte: CRC must catch it
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFile(path); err == nil || !strings.Contains(err.Error(), "manifest") {
			t.Fatalf("torn manifest not rejected: %v", err)
		}
		r, cerr := CheckFile(path)
		if cerr != nil {
			t.Fatal(cerr)
		}
		if r.OK() || r.ManifestErr == "" {
			t.Fatalf("scrub missed the torn manifest:\n%s", r)
		}
	})

	t.Run("truncated-manifest", func(t *testing.T) {
		path := newSharded(t)
		if err := os.Truncate(path, 10); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFile(path); err == nil {
			t.Fatal("truncated manifest opened")
		}
	})

	t.Run("swapped-shard-files", func(t *testing.T) {
		// Two shard files exchanged: each opens standalone, but the
		// record counts contradict the partition function.
		path := newSharded(t)
		a, b := shardPath(path, 0), shardPath(path, 1)
		tmp := a + ".tmp"
		if err := os.Rename(a, tmp); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(b, a); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, b); err != nil {
			t.Fatal(err)
		}
		db, err := OpenFile(path)
		if err == nil {
			// The swap is undetectable by counts only if both shards
			// hold the same number of records; the ids would then
			// disagree, which Verify must catch.
			verr := db.Verify()
			_ = db.Close()
			if verr == nil {
				t.Fatal("swapped shard files opened and verified clean")
			}
		} else if !strings.Contains(err.Error(), "shard") {
			t.Errorf("error does not name a shard: %v", err)
		}
	})

	t.Run("corrupt-shard-page", func(t *testing.T) {
		path := newSharded(t)
		sp := shardPath(path, 2)
		f, err := os.OpenFile(sp, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Flip a byte mid-file: a page CRC in shard 2 must fail.
		if _, err := f.WriteAt([]byte{0xff}, 3*2048+100); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		r, cerr := CheckFile(path)
		if cerr != nil {
			t.Fatal(cerr)
		}
		if r.OK() {
			t.Fatalf("scrub missed a flipped byte in shard 2:\n%s", r)
		}
		if len(r.Shards) == 3 && r.Shards[2].OK() && r.OpenErr == "" && r.IntegrityErr == "" {
			t.Errorf("corruption not attributed to shard 2:\n%s", r)
		}
	})
}

// TestShardedCapturePortability is the workload-portability contract: a
// capture taken on a 1-shard database replays digest-clean against a
// 4-shard build of the same data — the order-insensitive digests pin
// answer equality across engine layouts.
func TestShardedCapturePortability(t *testing.T) {
	ss := datagen.RandomWalks(7, 80, 64)
	one, err := Open(ss, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := MovingAverages(64, 5, 20)
	thr := Correlation(0.94)

	path := filepath.Join(t.TempDir(), "portable.tscap")
	if _, err := EnableCapture(path, CaptureOptions{}); err != nil {
		t.Fatal(err)
	}
	queries := 0
	for id := int64(0); id < 6; id++ {
		alg := []Algorithm{MTIndex, STIndex, SeqScan}[id%3]
		if _, _, err := one.RangeByID(id, ts, thr, QueryOptions{Algorithm: alg}); err != nil {
			t.Fatal(err)
		}
		queries++
	}
	q := one.Get(11)
	if _, _, err := one.NearestNeighbors(q, ts, 5, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	queries++
	if err := DisableCapture(); err != nil {
		t.Fatal(err)
	}

	four, err := Open(ss, nil, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayFile(context.Background(), four, path, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != int64(queries) || rep.Mismatches != 0 || rep.Errors != 0 || rep.Skipped != 0 {
		rep.WriteText(os.Stderr)
		t.Fatalf("cross-shard replay: records=%d mismatches=%d errors=%d skipped=%d",
			rep.Records, rep.Mismatches, rep.Errors, rep.Skipped)
	}
	if rep.CapturedTotals.Matches == 0 {
		t.Fatal("captured workload produced no matches; the digest check is vacuous")
	}
}

// TestShardedIndexEndpoint: /index serves the combined report with
// per-shard sections, and ?shard=N narrows to one shard.
func TestShardedIndexEndpoint(t *testing.T) {
	db := openShardedTestDB(t, 41, 90, 32, 3)
	ts := MovingAverages(32, 3, 8)
	h := IndexHandler(db, ts, nil)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/index?format=text", nil))
	body := rec.Body.String()
	if rec.Code != 200 || !strings.Contains(body, "sharded: 3 shards") {
		t.Fatalf("combined report: code=%d body:\n%s", rec.Code, body)
	}
	if !strings.Contains(body, "shard 2:") {
		t.Errorf("combined text report missing per-shard sections:\n%s", body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/index?shard=1&format=text", nil))
	if rec.Code != 200 {
		t.Fatalf("shard=1: code=%d", rec.Code)
	}
	if strings.Contains(rec.Body.String(), "sharded:") {
		t.Errorf("shard=1 returned the combined report:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/index?shard=7", nil))
	if rec.Code != 400 {
		t.Errorf("out-of-range shard: code=%d, want 400", rec.Code)
	}

	// Unsharded DBs reject the parameter too (no Shards section).
	h1 := IndexHandler(openTestDB(t, 41, 20, 32), ts, nil)
	rec = httptest.NewRecorder()
	h1.ServeHTTP(rec, httptest.NewRequest("GET", "/index?shard=0", nil))
	if rec.Code != 400 {
		t.Errorf("shard param on unsharded DB: code=%d, want 400", rec.Code)
	}
}

// TestShardedHealthText: DB.IndexHealth on a sharded database carries
// the rollup plus per-shard reports (the tsquery -inspect surface).
func TestShardedIndexHealth(t *testing.T) {
	db := openShardedTestDB(t, 43, 70, 32, 2)
	hr, err := db.IndexHealth(context.Background(), MovingAverages(32, 3, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if hr.ShardCount != 2 || len(hr.Shards) != 2 {
		t.Fatalf("ShardCount=%d len(Shards)=%d", hr.ShardCount, len(hr.Shards))
	}
	if hr.Shards[0].Series+hr.Shards[1].Series != 70 {
		t.Fatalf("shard series sum %d, want 70", hr.Shards[0].Series+hr.Shards[1].Series)
	}
	text := hr.String()
	for _, want := range []string{"sharded: 2 shards", "shard 0:", "shard 1:", "transformation groups"} {
		if !strings.Contains(text, want) {
			t.Errorf("health text missing %q:\n%s", want, text)
		}
	}
}

// TestShardManifestFieldsChecked: every parameter the manifest carries
// must agree with each shard's superblock. A manifest whose symmetry
// flag disagrees (CRC intact) must not open, and the error must name
// the shard it was compared with.
func TestShardManifestFieldsChecked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sym.tsq")
	db, err := CreateFile(path, datagen.RandomWalks(9, 30, 16), nil, Options{PageSize: 1024, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mi, err := decodeManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	mi.symmetry = !mi.symmetry
	if err := os.WriteFile(path, encodeManifest(mi), 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err := OpenFile(path); err == nil {
		_ = db.Close()
		t.Fatal("opened a manifest whose symmetry flag contradicts its shards")
	} else if !strings.Contains(err.Error(), "shard 0") || !strings.Contains(err.Error(), "symmetry") {
		t.Errorf("open error does not name shard 0 and the field: %v", err)
	}
	r, err := CheckFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.OK() || !strings.Contains(r.OpenErr, "shard 0") {
		t.Fatalf("scrub missed the contradicting manifest:\n%s", r)
	}
}
