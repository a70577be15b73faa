package tsq

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tsq/internal/datagen"
)

// makeCheckedFile creates a small database file and returns its path.
func makeCheckedFile(t *testing.T, opts Options) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "check.tsq")
	ss := datagen.RandomWalks(21, 40, 32)
	db, err := CreateFile(path, ss, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckFileCleanDatabase(t *testing.T) {
	path := makeCheckedFile(t, Options{PageSize: 4096})
	r, err := CheckFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Fatalf("clean file reported corrupt:\n%s", r)
	}
	if !r.Checksummed {
		t.Error("new files should be checksummed by default")
	}
	if r.Scanned != r.Pages-1 {
		t.Errorf("scanned %d of %d pages (page 0 is the header region)", r.Scanned, r.Pages)
	}
	if !strings.Contains(r.String(), "result: OK") {
		t.Errorf("report rendering:\n%s", r)
	}
}

func TestCheckFileUncheckedFormat(t *testing.T) {
	path := makeCheckedFile(t, Options{PageSize: 4096, DisableChecksums: true})
	r, err := CheckFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Fatalf("clean pre-checksum-format file reported corrupt:\n%s", r)
	}
	if r.Checksummed || r.Scanned != 0 {
		t.Errorf("Checksummed=%v Scanned=%d for a flagless file", r.Checksummed, r.Scanned)
	}
}

func TestCheckFileDetectsBitFlip(t *testing.T) {
	path := makeCheckedFile(t, Options{PageSize: 4096})
	// Flip one byte mid-file — inside some record or node page.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	corruptOff := st.Size() / 2
	buf := make([]byte, 1)
	if _, err := f.ReadAt(buf, corruptOff); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0x40
	if _, err := f.WriteAt(buf, corruptOff); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := CheckFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.OK() {
		t.Fatalf("bit flip not caught:\n%s", r)
	}
	wantPage := int(corruptOff) / r.PageSize
	found := false
	for _, p := range r.BadPages {
		if int(p) == wantPage {
			found = true
		}
	}
	if !found {
		t.Errorf("bad page %d not in report %v", wantPage, r.BadPages)
	}
	// The read path detects the same corruption when the damaged page is
	// actually fetched: a full scan of all records must fail.
	if db, err := OpenFile(path); err == nil {
		if verr := db.Verify(); verr == nil {
			t.Error("Verify passed on a checksum-corrupt file")
		}
		_ = db.Close()
	}
}

func TestCheckFileDetectsTornTail(t *testing.T) {
	path := makeCheckedFile(t, Options{PageSize: 4096})
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-1000); err != nil {
		t.Fatal(err)
	}
	r, err := CheckFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.OK() {
		t.Fatalf("torn tail not caught:\n%s", r)
	}
	if r.TailBytes == 0 {
		t.Errorf("TailBytes = 0 after truncating to a non-page boundary")
	}
}

func TestCheckFileRejectsMissingHeader(t *testing.T) {
	// A crash before the raw-header commit record leaves a magic-less
	// file: CheckFile reports it rather than erroring or panicking.
	path := filepath.Join(t.TempDir(), "headerless.tsq")
	if err := os.WriteFile(path, make([]byte, 8192), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := CheckFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.OK() || r.HeaderErr == "" {
		t.Fatalf("magic-less file passed the scrub:\n%s", r)
	}
	// A missing file, by contrast, is an error: nothing to scrub.
	if _, err := CheckFile(filepath.Join(t.TempDir(), "nope.tsq")); err == nil {
		t.Error("CheckFile on a missing file returned no error")
	}
}

func TestUncheckedFormatAnswersIdentically(t *testing.T) {
	// The pre-checksum format must keep answering queries bit-identically
	// to the checksummed format for the same data. The checksum trailer
	// takes 8 bytes of every page, so a checksummed leaf holds 72 points
	// and an unchecked one 73: the trees differ, and so does the order in
	// which they meet the matches (DB.Range leaves it unspecified). The
	// sets and every distance's bits must not.
	dir := t.TempDir()
	ss := datagen.StockMarket(31, 80, 64, datagen.DefaultMarketOptions())
	run := func(opts Options, path string) []Match {
		db, err := CreateFile(path, ss, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		ms, _, err := re.Range(re.Get(3), MovingAverages(64, 5, 15), Correlation(0.9), QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		SortMatches(ms)
		return ms
	}
	plain := run(Options{PageSize: 4096, DisableChecksums: true}, filepath.Join(dir, "plain.tsq"))
	summed := run(Options{PageSize: 4096}, filepath.Join(dir, "summed.tsq"))
	if len(plain) != len(summed) {
		t.Fatalf("formats disagree: %d vs %d matches", len(plain), len(summed))
	}
	for i := range plain {
		if plain[i] != summed[i] {
			t.Fatalf("match %d differs across formats: %+v vs %+v", i, plain[i], summed[i])
		}
	}
}

// TestCheckFileReportsTornManifest: the manifest is written with
// O_TRUNC, so a crash can leave it empty or short. That is corruption
// to report, not a failure to examine the file.
func TestCheckFileReportsTornManifest(t *testing.T) {
	src := filepath.Join(t.TempDir(), "m.tsq")
	db, err := CreateFile(src, datagen.RandomWalks(5, 30, 16), nil, Options{PageSize: 1024, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		size       int
		wantHeader bool // too short to carry a magic: the header pass reports it
	}{
		{size: 0, wantHeader: true},
		{size: 2, wantHeader: true},
		{size: 35},
	} {
		path := filepath.Join(t.TempDir(), "m.tsq")
		if err := os.WriteFile(path, manifest[:tc.size], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := CheckFile(path)
		if err != nil {
			t.Fatalf("%d-byte manifest: CheckFile returned an error instead of a report: %v", tc.size, err)
		}
		if r.OK() || !strings.Contains(r.String(), "result: CORRUPT") {
			t.Fatalf("%d-byte manifest passed the scrub:\n%s", tc.size, r)
		}
		if got := r.HeaderErr != ""; got != tc.wantHeader {
			t.Errorf("%d-byte manifest: HeaderErr %q, ManifestErr %q", tc.size, r.HeaderErr, r.ManifestErr)
		}
		if !tc.wantHeader && r.ManifestErr == "" {
			t.Errorf("%d-byte manifest: no ManifestErr:\n%s", tc.size, r)
		}
		if _, err := OpenFile(path); err == nil {
			t.Errorf("%d-byte manifest opened", tc.size)
		}
	}
}
