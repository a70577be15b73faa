package tsq

// File scrubbing: CheckFile examines a database file for corruption
// without modifying it — the offline counterpart of the checksummed read
// path. It reports rather than repairs: the file format keeps no
// redundancy to rebuild a lost page from, so the honest output of a scrub
// is an exact list of what is damaged.

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"tsq/internal/heapfile"
	"tsq/internal/storage"
	"tsq/internal/wal"
)

// maxReportedBadPages caps the page list a CheckReport carries; the
// total count is always exact.
const maxReportedBadPages = 64

// CheckReport is the result of CheckFile.
type CheckReport struct {
	Path        string
	PageSize    int  // physical page size from the raw header (0 if unreadable)
	Checksummed bool // file carries per-page CRC32C trailers
	Pages       int  // full pages the file holds (including the page-0 header region)
	TailBytes   int  // bytes past the last full page: a torn tail, always corruption
	Scanned     int  // pages checksum-verified (0 for pre-checksum files)

	// BadPages lists pages that failed checksum verification, capped at
	// maxReportedBadPages; BadPageCount is the exact total. HealedPages
	// counts the bad pages whose full after-image is pending in the
	// write-ahead log: those are a crash between the log fsync and the
	// page flush, repaired by replay on the next open, so they do not
	// make the file corrupt.
	BadPages     []storage.PageID
	BadPageCount int
	HealedPages  int
	// BadRecords names, for each listed bad page that holds records, the
	// page and the ids of the records with a part on it, so a damaged
	// heap page says which series it takes with it.
	BadRecords []string

	// FreePages counts pages that are entirely zero: allocated (the file
	// was grown) but never written. An aborted transaction leaves these
	// behind — the file grew before the operation was logged, and the
	// abort only returns the pages to the allocator. They hold no data,
	// so they are reported but are not corruption.
	FreePages int

	// Write-ahead log scrub. WALRecords/WALBytes describe the pending
	// (acknowledged but not yet folded) records; WALTornBytes is a torn
	// tail past the last durable record — a crashed append, truncated on
	// the next read-write open, so informational rather than corruption.
	// WALErr records real log corruption (foreign magic, an undecodable
	// durable record); it fails the scrub.
	WALPresent   bool
	WALRecords   int
	WALBytes     int64
	WALTornBytes int64
	WALErr       string

	// HeaderErr, OpenErr, and IntegrityErr record the failures of the
	// three structural passes (raw header validation, OpenFile, and
	// DB.Verify), empty when the pass succeeded. A non-empty HeaderErr
	// suppresses the later passes — without a trusted page size there is
	// nothing sound to scan.
	HeaderErr    string
	OpenErr      string
	IntegrityErr string

	// Heap is the layout of the file's record heap (heapfile.Health):
	// verify pages and their fill, raw pages, pages of inserted records,
	// and the records out of tree-leaf order. Nil when the integrity
	// pass did not run clean.
	Heap *heapfile.Health

	// Sharded databases: ShardCount is the manifest's shard count and
	// Shards holds one sub-report per shard file, with that file's
	// physical passes (header, tail, WAL, checksums) and the open or
	// integrity error of its part of the combined open, so corruption is
	// always pinned to a shard. ManifestErr records a bad manifest:
	// wrong magic, torn CRC, implausible parameters. The top-level
	// OpenErr/IntegrityErr cover the combined open. All zero/empty for a
	// database of one page file, whose passes fill the report itself.
	ShardCount  int
	ManifestErr string
	Shards      []*CheckReport
}

// OK reports whether the scrub found the file fully intact.
func (r *CheckReport) OK() bool {
	for _, s := range r.Shards {
		if !s.OK() {
			return false
		}
	}
	return r.TailBytes == 0 && r.BadPageCount == r.HealedPages && r.WALErr == "" && r.ManifestErr == "" &&
		r.HeaderErr == "" && r.OpenErr == "" && r.IntegrityErr == ""
}

// String renders the report for humans (the tsquery -check output).
func (r *CheckReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "check %s\n", r.Path)
	switch {
	case r.ManifestErr != "":
		fmt.Fprintf(&b, "  manifest:  BAD (%s)\n", r.ManifestErr)
	case r.HeaderErr != "":
		fmt.Fprintf(&b, "  header:    BAD (%s)\n", r.HeaderErr)
	case r.ShardCount > 0:
		fmt.Fprintf(&b, "  manifest:  %d shards\n", r.ShardCount)
		for i, s := range r.Shards {
			if s.OK() {
				fmt.Fprintf(&b, "  shard %d:   ok (%s)\n", i, s.Path)
				if s.Heap != nil {
					fmt.Fprintf(&b, "    heap:      %s\n", s.Heap)
				}
				continue
			}
			fmt.Fprintf(&b, "  shard %d:   CORRUPT (%s)\n", i, s.Path)
			for _, line := range strings.Split(strings.TrimRight(s.String(), "\n"), "\n") {
				fmt.Fprintf(&b, "    %s\n", line)
			}
		}
	default:
		r.writeFile(&b)
	}
	if r.ManifestErr == "" && r.HeaderErr == "" {
		if r.OpenErr != "" {
			fmt.Fprintf(&b, "  open:      BAD (%s)\n", r.OpenErr)
		} else if r.IntegrityErr != "" {
			fmt.Fprintf(&b, "  integrity: BAD (%s)\n", r.IntegrityErr)
		} else {
			fmt.Fprintf(&b, "  structure: ok\n")
		}
	}
	fmt.Fprintf(&b, "result: %s\n", map[bool]string{true: "OK", false: "CORRUPT"}[r.OK()])
	return b.String()
}

// writeFile renders the physical passes over one page file.
func (r *CheckReport) writeFile(b *strings.Builder) {
	fmt.Fprintf(b, "  format:    %d-byte pages, checksums %s\n", r.PageSize, map[bool]string{true: "on", false: "off (pre-checksum file)"}[r.Checksummed])
	fmt.Fprintf(b, "  size:      %d pages", r.Pages)
	if r.TailBytes != 0 {
		fmt.Fprintf(b, " + %d-byte torn tail", r.TailBytes)
	}
	b.WriteString("\n")
	if r.Checksummed {
		fmt.Fprintf(b, "  checksums: %d pages scanned, %d bad", r.Scanned, r.BadPageCount)
		if r.FreePages > 0 {
			fmt.Fprintf(b, ", %d free (never written)", r.FreePages)
		}
		if r.BadPageCount > 0 {
			if r.HealedPages > 0 {
				fmt.Fprintf(b, " (%d healable from wal)", r.HealedPages)
			}
			fmt.Fprintf(b, " (pages %v", r.BadPages)
			if r.BadPageCount > len(r.BadPages) {
				fmt.Fprintf(b, " and %d more", r.BadPageCount-len(r.BadPages))
			}
			b.WriteString(")")
		}
		b.WriteString("\n")
		for _, line := range r.BadRecords {
			fmt.Fprintf(b, "             %s\n", line)
		}
	}
	if r.Heap != nil {
		fmt.Fprintf(b, "  heap:      %s\n", r.Heap)
	}
	if r.WALErr != "" {
		fmt.Fprintf(b, "  wal:       BAD (%s)\n", r.WALErr)
	} else if r.WALPresent {
		if r.WALRecords == 0 && r.WALTornBytes == 0 {
			fmt.Fprintf(b, "  wal:       empty\n")
		} else {
			fmt.Fprintf(b, "  wal:       %d pending records, %d bytes", r.WALRecords, r.WALBytes)
			if r.WALTornBytes > 0 {
				fmt.Fprintf(b, " + %d-byte torn tail (crashed append; truncated on next open)", r.WALTornBytes)
			}
			b.WriteString("\n")
		}
	}
}

// CheckFile scrubs the database at path: for each of its page files it
// validates the raw header, detects a torn tail, reads the write-ahead
// log and checksum-verifies every page (for checksummed files); then it
// runs the full structural integrity pass (a read-only open + Verify)
// over the whole database. At one page file the results fill the report
// itself; behind a manifest each shard file gets its own sub-report in
// Shards, so damage is always pinned to the shard that carries it. The
// files are only read. The returned error is non-nil only when path
// cannot be examined at all (e.g. it does not exist); corruption,
// including a torn or empty manifest, is reported in the CheckReport,
// not as an error.
func CheckFile(path string) (*CheckReport, error) {
	if _, err := os.Stat(path); err != nil {
		return nil, fmt.Errorf("tsq: check: %w", err)
	}
	files, err := resolveFiles(path)
	if err != nil {
		return &CheckReport{Path: path, ManifestErr: err.Error()}, nil
	}
	r, reports := files.newReport()
	for i, p := range files.paths {
		if err := reports[i].scrubFile(p); err != nil {
			return nil, err
		}
	}
	if r.HeaderErr != "" {
		return r, nil // no trusted page size: nothing sound to open
	}
	// Structural pass: a full open plus index/heap verification. This
	// is what catches corruption checksums cannot see (a logically
	// inconsistent but correctly-written file, shard files that
	// contradict the manifest or each other) and everything in
	// pre-checksum files. The scrub-mode open replays pending WAL
	// records into a memory overlay, so the pass judges the state the
	// next real open would recover to — while the files and the logs
	// stay untouched.
	db, err := openFileAny(path, nil, openScrub)
	if err != nil {
		r.OpenErr = err.Error()
		var se *shardError
		if errors.As(err, &se) {
			reports[se.shard].OpenErr = se.err.Error()
		}
		return r, nil
	}
	defer func() { _ = db.Close() }() // read-only scrub
	for i, sub := range reports {
		for _, id := range sub.BadPages {
			if recs := db.ix.RecordsOnPage(i, id); len(recs) > 0 {
				sub.BadRecords = append(sub.BadRecords, fmt.Sprintf("page %d holds records %v", id, recs))
			}
		}
	}
	if err := db.Verify(); err != nil {
		r.IntegrityErr = err.Error()
		for i, sub := range reports {
			if err := db.ix.Shard(i).Verify(); err != nil {
				sub.IntegrityErr = err.Error()
			}
		}
		return r, nil
	}
	for i, sub := range reports {
		h, err := db.ix.Shard(i).Heap().ComputeHealth(nil)
		if err != nil {
			sub.IntegrityErr = err.Error()
			continue
		}
		sub.Heap = h
	}
	return r, nil
}

// newReport returns the empty scrub report of the database and the
// report each page file's results go into: the report itself for one
// page file, one sub-report in Shards per shard file behind a manifest.
func (files dbFiles) newReport() (*CheckReport, []*CheckReport) {
	r := &CheckReport{Path: files.path}
	if files.mi == nil {
		return r, []*CheckReport{r}
	}
	r.ShardCount = files.mi.shards
	for _, p := range files.paths {
		r.Shards = append(r.Shards, &CheckReport{Path: p})
	}
	return r, r.Shards
}

// scrubFile runs the physical passes over one page file: raw header,
// torn tail, write-ahead log, page checksums. The returned error means
// the file could not be examined at all.
func (r *CheckReport) scrubFile(path string) error {
	st, err := os.Stat(path)
	if err != nil {
		// A missing shard file is corruption of the database, not an
		// examination failure.
		r.HeaderErr = fmt.Errorf("tsq: check: %w", err).Error()
		return nil
	}
	if r.PageSize, r.Checksummed, err = readRawHeader(path); err != nil {
		r.HeaderErr = err.Error()
		return nil
	}
	r.Pages = int(st.Size() / int64(r.PageSize))
	r.TailBytes = int(st.Size() % int64(r.PageSize))

	// Write-ahead log scrub: scan the log without repairing it, and
	// collect the pages whose after-images it still holds — a checksum
	// failure on one of those is a crash mid-flush, healed by replay,
	// not data loss.
	pending, info, werr := wal.ReadPending(walPath(path))
	r.WALPresent = info.Present
	r.WALRecords = info.Records
	r.WALBytes = info.Bytes
	r.WALTornBytes = info.TornBytes
	covered := make(map[storage.PageID]bool)
	if werr != nil {
		r.WALErr = werr.Error()
	} else {
		for _, rec := range pending {
			for _, img := range rec.Pages {
				covered[img.ID] = true
			}
		}
	}
	if r.Checksummed {
		return r.scanChecksums(path, covered)
	}
	return nil
}

// scanChecksums verifies the trailer of every full page after the
// header region. Reads go through a Manager over the checksum layer so
// failures land in the storage error counters exactly as read-path
// failures do. Bad pages in covered (pending WAL after-images) are
// counted as healed.
func (r *CheckReport) scanChecksums(path string, covered map[storage.PageID]bool) error {
	fileBackend, err := storage.NewFileBackend(path, r.PageSize)
	if err != nil {
		return fmt.Errorf("tsq: check: %w", err)
	}
	cb := storage.NewChecksumBackend(fileBackend, r.PageSize)
	mgr := storage.NewManager(storage.Options{
		PageSize: cb.LogicalPageSize(),
		Backend:  cb,
	})
	defer func() { _ = mgr.Close() }()
	buf := make([]byte, cb.LogicalPageSize())
	phys := make([]byte, r.PageSize)
	for id := storage.PageID(1); int(id) < r.Pages; id++ {
		r.Scanned++
		if err := mgr.Read(id, buf); err != nil {
			// An entirely-zero page is allocated-but-never-written (an
			// aborted transaction grew the file); it holds no data, so
			// it is free space, not corruption.
			if rerr := fileBackend.ReadPage(id, phys); rerr == nil && allZero(phys) {
				r.FreePages++
				continue
			}
			r.BadPageCount++
			if covered[id] {
				r.HealedPages++
			}
			if len(r.BadPages) < maxReportedBadPages {
				r.BadPages = append(r.BadPages, id)
			}
		}
	}
	return nil
}

// allZero reports whether every byte of p is zero.
func allZero(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}
