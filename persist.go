package tsq

// Persistence: a DB lives on disk as N >= 1 page files — each one the
// record heap, the R*-tree and a superblock tying them together for one
// shard — and reopens without rebuilding the index. File-backed
// databases are always "paged": candidate verification retrieves record
// pages through the storage manager, so the disk-access statistics cover
// the full Eq. 18 retrieval path.
//
// Which files make up the database at path is decided in one place
// (dbFiles): path itself when N = 1, or path.shard0..N-1 behind a small
// CRC-protected manifest (magic "TSQM") at path when N > 1, naming the
// shard count and the index parameters. CreateFile, OpenFile (recovery
// included) and CheckFile are each one loop over those files, followed
// by core.AssembleShards. N = 1 writes no manifest. The global<->local
// id mapping is a pure function of the total record count and the
// partition function, so it is re-derived on open and cross-checked
// against the shard files; every manifest field is checked against each
// shard's superblock.
//
// Page file layout: a 16-byte raw header in the reserved page-0 region
// (magic + page size + format flags, so OpenFile can size the backend),
// the superblock on page 1, and heap/tree pages after it.
//
// Checksummed format (the default since the crash-consistency work):
// every page except the raw page-0 region carries a CRC32C trailer in
// its last 8 bytes, written and verified by storage.ChecksumBackend.
// The page size in the raw header is always the PHYSICAL page size;
// when the checksum flag is set, layers above the backend operate on
// logical pages 8 bytes smaller. Files written without the flag (PR 4
// and earlier) reopen transparently with no checksum layer.
//
// Durability: creating a page file truncates whatever file was at its
// path (and removes its WAL) before the first page write, syncs the page
// image, then writes and syncs the raw header — the header acts as a
// commit record, so a crash mid-create leaves a file OpenFile rejects
// (no magic) rather than a plausible-looking torn database, and no page
// of an older database survives past the new one's end. The manifest is
// written and synced last, after every shard file has committed: a
// crash anywhere mid-create leaves no manifest (OpenFile: not a tsq
// database), a torn one (CRC reject; CheckFile reports an empty or
// short one as corruption), or one whose named shard file fails its own
// header/checksum validation with a shard-identifying error. A
// partially-visible database is never constructible.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"tsq/internal/core"
	"tsq/internal/obs"
	"tsq/internal/storage"
	"tsq/internal/wal"
)

var (
	fileMagic     = [4]byte{'T', 'S', 'Q', 'F'}
	superMagic    = [4]byte{'T', 'S', 'Q', '1'}
	manifestMagic = [4]byte{'T', 'S', 'Q', 'M'}
)

const rawHeaderSize = 16

// Raw header format flags (offset 8). Files from before the flags field
// existed have zeros there, which decodes as "no checksums" — exactly
// their format.
const rawFlagChecksums = 1 << 0

// Superblock flags (offset 12).
const (
	superFlagSymmetry  = 1 << 0
	superFlagChecksums = 1 << 1 // mirrors rawFlagChecksums; cross-checked on open
)

// indexParams are the index parameters the superblock and the manifest
// both carry, encoded alike in each: n, k and the flags word, 12 bytes.
type indexParams struct {
	n, k        int
	symmetry    bool
	checksummed bool
}

func (p indexParams) put(buf []byte) {
	var flags uint32
	if p.symmetry {
		flags |= superFlagSymmetry
	}
	if p.checksummed {
		flags |= superFlagChecksums
	}
	binary.LittleEndian.PutUint32(buf, uint32(p.n))
	binary.LittleEndian.PutUint32(buf[4:], uint32(p.k))
	binary.LittleEndian.PutUint32(buf[8:], flags)
}

func getParams(buf []byte) indexParams {
	flags := binary.LittleEndian.Uint32(buf[8:])
	return indexParams{
		n:           int(binary.LittleEndian.Uint32(buf)),
		k:           int(binary.LittleEndian.Uint32(buf[4:])),
		symmetry:    flags&superFlagSymmetry != 0,
		checksummed: flags&superFlagChecksums != 0,
	}
}

// params are the index parameters a database of series length n
// created with opts records on disk.
func (opts Options) params(n int) indexParams {
	return indexParams{n: n, k: opts.K, symmetry: !opts.DisableSymmetry, checksummed: !opts.DisableChecksums}
}

// superInfo is the decoded superblock.
type superInfo struct {
	indexParams
	treeMeta storage.PageID
	heapDir  storage.PageID
}

// Superblock layout (page 1, little endian):
//
//	offset 0: magic "TSQ1"
//	offset 4: series length n (uint32)
//	offset 8: indexed coefficients k (uint32)
//	offset 12: flags (uint32; bit 0 = symmetry, bit 1 = checksummed)
//	offset 16: tree meta page (uint32)
//	offset 20: heap directory page (uint32)
func encodeSuper(buf []byte, si superInfo) {
	copy(buf, superMagic[:])
	si.put(buf[4:])
	binary.LittleEndian.PutUint32(buf[16:], uint32(si.treeMeta))
	binary.LittleEndian.PutUint32(buf[20:], uint32(si.heapDir))
}

// decodeSuper validates and decodes a superblock page. A corrupt
// superblock must fail here with a descriptive error, not as a panic in
// whatever downstream code first trusts the garbage.
func decodeSuper(buf []byte) (superInfo, error) {
	var si superInfo
	if [4]byte(buf[:4]) != superMagic {
		return si, fmt.Errorf("tsq: bad superblock magic %q", buf[:4])
	}
	si.indexParams = getParams(buf[4:])
	si.treeMeta = storage.PageID(binary.LittleEndian.Uint32(buf[16:]))
	si.heapDir = storage.PageID(binary.LittleEndian.Uint32(buf[20:]))
	if si.n <= 0 {
		return si, fmt.Errorf("tsq: corrupt superblock: series length %d (must be > 0)", si.n)
	}
	if si.k <= 0 || si.k > si.n {
		return si, fmt.Errorf("tsq: corrupt superblock: %d indexed coefficients for series length %d (need 0 < k <= n)", si.k, si.n)
	}
	if si.treeMeta == storage.NilPage {
		return si, fmt.Errorf("tsq: corrupt superblock: nil tree meta page")
	}
	if si.heapDir == storage.NilPage {
		return si, fmt.Errorf("tsq: corrupt superblock: nil heap directory page")
	}
	return si, nil
}

// CreateFile builds a database in Options.Shards page files (one when
// Shards is 0 or 1) holding the records and the index; reopen with
// OpenFile. The returned DB must be closed.
func CreateFile(path string, ss []Series, names []string, opts Options) (*DB, error) {
	return createFile(path, ss, names, opts, nil)
}

// createFile is CreateFile with a test hook: when wrap is non-nil it is
// applied to the raw file backend before the checksum layer, placing
// injected faults at the "disk" position — beneath the CRC, which is
// where torn writes happen and where the checksums must catch them.
func createFile(path string, ss []Series, names []string, opts Options, wrap func(storage.Backend) storage.Backend) (*DB, error) {
	if opts.PageSize == 0 {
		opts.PageSize = storage.DefaultPageSize
	}
	if opts.K == 0 {
		opts.K = 2
	}
	ds, err := core.NewDataset(ss, names)
	if err != nil {
		return nil, err
	}
	files := newFiles(path, manifestInfo{shards: opts.Shards, indexParams: opts.params(ds.N)})
	locals, err := core.PartitionDataset(ds, len(files.paths))
	if err != nil {
		return nil, err
	}
	// Shard files share nothing, so they are built in parallel — one at
	// a time under a fault hook, which must see a deterministic write
	// sequence. On error the managers are closed but partial files stay:
	// without the manifest the set is unopenable, and it is exactly the
	// image a crash would leave, which the fault sweeps examine.
	shards := make([]*core.Index, len(files.paths))
	errs := make([]error, len(files.paths))
	var wg sync.WaitGroup
	for i, p := range files.paths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shards[i], errs[i] = createShardFile(p, locals[i], opts, wrap)
		}()
		if wrap != nil {
			wg.Wait()
			if errs[i] != nil {
				break // an injected fault ends the run, as a crash would
			}
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			closeIndexes(shards)
			return nil, files.shardErr(i, err)
		}
	}
	if err := files.writeManifest(); err != nil {
		closeIndexes(shards)
		return nil, err
	}
	return assemble(shards)
}

// assemble puts opened shard indexes together as a DB, closing them if
// they do not fit.
func assemble(shards []*core.Index) (*DB, error) {
	sh, err := core.AssembleShards(shards)
	if err != nil {
		closeIndexes(shards)
		return nil, fmt.Errorf("tsq: %w", err)
	}
	return &DB{ix: sh}, nil
}

// closeIndexes closes every non-nil index.
func closeIndexes(shards []*core.Index) {
	for _, ix := range shards {
		if ix != nil {
			_ = ix.Close()
		}
	}
}

// walPath names the write-ahead log that protects the page file at
// path (one per shard file).
func walPath(path string) string { return path + ".wal" }

// mWALFsync is the group-commit fsync latency histogram; the hook is
// installed on every log this package opens.
var mWALFsync = obs.Default.Histogram("tsq_wal_fsync_latency_ns", obs.DurationBuckets())

// openWAL opens (or creates) the write-ahead log for the page file at
// path, wiring the fsync latency hook, and returns the log plus any
// records that were acknowledged but not yet folded into the file.
func openWAL(path string) (*wal.Log, []wal.Record, error) {
	wlog, pending, err := wal.OpenFile(walPath(path))
	if err != nil {
		return nil, nil, fmt.Errorf("tsq: opening write-ahead log: %w", err)
	}
	wlog.OnFsync = mWALFsync.ObserveDuration
	return wlog, pending, nil
}

// createShardFile writes one complete page file at path from a ready
// dataset, returning its opened index with a fresh WAL attached. On
// error the storage manager is closed.
func createShardFile(path string, ds *core.Dataset, opts Options, wrap func(storage.Backend) storage.Backend) (ix *core.Index, err error) {
	// A WAL left over from a previous database at this path would replay
	// foreign pages into the new file on reopen: remove it before the
	// first page write, and create the fresh log only after the header
	// commits. The previous file's pages go too, or a smaller database
	// would keep them past its end.
	if err := os.Remove(walPath(path)); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("tsq: removing stale write-ahead log: %w", err)
	}
	if err := os.Truncate(path, 0); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("tsq: truncating page file: %w", err)
	}
	staged, pageSize, err := pageStack(path, opts.PageSize, !opts.DisableChecksums, wrap)
	if err != nil {
		return nil, err
	}
	mgr := storage.NewManager(storage.Options{
		PageSize:    pageSize,
		BufferPages: opts.BufferPages,
		Backend:     staged,
	})
	defer func() {
		if err != nil {
			_ = mgr.Close()
		}
	}()
	superID, err := mgr.Alloc()
	if err != nil {
		return nil, err
	}
	ix, err = core.BuildIndex(ds, core.IndexOptions{
		K:           opts.K,
		PageSize:    pageSize,
		UseSymmetry: !opts.DisableSymmetry,
		Paged:       true,
		Manager:     mgr,
		BulkLoad:    opts.BulkLoad && len(ds.Records) > 0,
	})
	if err != nil {
		return nil, err
	}
	buf := make([]byte, pageSize)
	encodeSuper(buf, superInfo{
		indexParams: opts.params(ds.N),
		treeMeta:    ix.Tree().MetaID(),
		heapDir:     ix.Heap().DirHead(),
	})
	if err := mgr.Write(superID, buf); err != nil {
		return nil, err
	}
	// Commit protocol: sync the page image, then write and sync the raw
	// header. The header is what OpenFile validates first, so a crash at
	// any point before the final sync leaves a file that is rejected
	// (or scrubbed) rather than silently half-built.
	if err := mgr.Sync(); err != nil {
		return nil, err
	}
	if err := writeRawHeader(path, opts.PageSize, !opts.DisableChecksums); err != nil {
		return nil, err
	}
	// The file is committed; arm the online write path.
	wlog, _, err := openWAL(path)
	if err != nil {
		return nil, err
	}
	ix.AttachWAL(wlog, staged)
	return ix, nil
}

// pageStack opens the backend stack over one page file: the file, the
// fault hook when set, the checksum layer when the format has one, and
// the staging overlay the WAL commits through. It returns the logical
// page size the layers above it see.
func pageStack(path string, physPageSize int, checksummed bool, wrap func(storage.Backend) storage.Backend) (*storage.StagedBackend, int, error) {
	fileBackend, err := storage.NewFileBackend(path, physPageSize)
	if err != nil {
		return nil, 0, err
	}
	var backend storage.Backend = fileBackend
	if wrap != nil {
		backend = wrap(backend)
	}
	if !checksummed {
		return storage.NewStagedBackend(backend), physPageSize, nil
	}
	cb := storage.NewChecksumBackend(backend, physPageSize)
	return storage.NewStagedBackend(cb), cb.LogicalPageSize(), nil
}

// shardPath names shard i's page file of the sharded database at path.
func shardPath(path string, i int) string {
	return fmt.Sprintf("%s.shard%d", path, i)
}

// dbFiles is the one decision about which page files make up the
// database at path: path itself when it holds a page file, or
// path.shard0..N-1 when it holds a manifest. Only this type, its
// constructors and the manifest writer know which; create, open and
// scrub each loop over paths.
type dbFiles struct {
	path  string
	paths []string
	mi    *manifestInfo // nil for one page file, which has no manifest
}

// newFiles lays out a database of mi.shards page files at path; 0 or 1
// shards is the lone page file at path itself.
func newFiles(path string, mi manifestInfo) dbFiles {
	if mi.shards <= 1 {
		return dbFiles{path: path, paths: []string{path}}
	}
	files := dbFiles{path: path, mi: &mi}
	for i := range mi.shards {
		files.paths = append(files.paths, shardPath(path, i))
	}
	return files
}

// resolveFiles reads the layout of the database at path: a manifest
// names its shard files, and anything else is taken for a page file,
// whose own header validation reports a non-database.
func resolveFiles(path string) (dbFiles, error) {
	head, err := readHead(path, manifestSize)
	if err != nil && !errors.Is(err, io.EOF) {
		return dbFiles{}, err
	}
	if len(head) < len(manifestMagic) || [4]byte(head[:4]) != manifestMagic {
		return newFiles(path, manifestInfo{}), nil
	}
	mi, err := decodeManifest(head)
	if err != nil {
		return dbFiles{}, err
	}
	return newFiles(path, mi), nil
}

// shardErr names shard i's file in err; the lone page file's errors are
// the database's own.
func (files dbFiles) shardErr(i int, err error) error {
	if files.mi == nil {
		return err
	}
	return &shardError{shard: i, path: files.paths[i], err: err}
}

// shardError is an error from one shard file of a sharded database.
type shardError struct {
	shard int
	path  string
	err   error
}

func (e *shardError) Error() string {
	return fmt.Sprintf("tsq: shard %d (%s): %v", e.shard, e.path, e.err)
}

func (e *shardError) Unwrap() error { return e.err }

// check compares a shard's superblock with every field the manifest
// carries.
func (files dbFiles) check(si superInfo) error {
	mi := files.mi
	switch {
	case mi == nil:
		return nil
	case si.n != mi.n:
		return fmt.Errorf("series length %d, manifest says %d", si.n, mi.n)
	case si.k != mi.k:
		return fmt.Errorf("k=%d, manifest says %d", si.k, mi.k)
	case si.symmetry != mi.symmetry:
		return fmt.Errorf("symmetry=%v, manifest says %v", si.symmetry, mi.symmetry)
	case si.checksummed != mi.checksummed:
		return fmt.Errorf("checksums=%v, manifest says %v", si.checksummed, mi.checksummed)
	}
	return nil
}

// manifestInfo is the decoded shard manifest.
type manifestInfo struct {
	shards int
	indexParams
}

// Manifest layout (little endian, 36 bytes):
//
//	offset 0:  magic "TSQM"
//	offset 4:  format version (uint32, currently 1)
//	offset 8:  shard count (uint32)
//	offset 12: series length n (uint32)
//	offset 16: indexed coefficients k (uint32)
//	offset 20: flags (uint32; bit 0 = symmetry, bit 1 = checksummed)
//	offset 24: reserved (8 bytes, zero)
//	offset 32: CRC32C over bytes [0, 32)
//
// The record count is deliberately absent: it is derived from the shard
// files on open (and cross-checked against the partition function), so
// inserts never have to rewrite the manifest.
const manifestSize = 36

func encodeManifest(mi manifestInfo) []byte {
	buf := make([]byte, manifestSize)
	copy(buf, manifestMagic[:])
	binary.LittleEndian.PutUint32(buf[4:], 1)
	binary.LittleEndian.PutUint32(buf[8:], uint32(mi.shards))
	mi.put(buf[12:])
	binary.LittleEndian.PutUint32(buf[32:], crc32.Checksum(buf[:32], crc32.MakeTable(crc32.Castagnoli)))
	return buf
}

func decodeManifest(buf []byte) (manifestInfo, error) {
	var mi manifestInfo
	if len(buf) < manifestSize {
		return mi, fmt.Errorf("tsq: shard manifest truncated (%d bytes, need %d)", len(buf), manifestSize)
	}
	if [4]byte(buf[:4]) != manifestMagic {
		return mi, fmt.Errorf("tsq: bad shard manifest magic %q", buf[:4])
	}
	if got, want := binary.LittleEndian.Uint32(buf[32:]), crc32.Checksum(buf[:32], crc32.MakeTable(crc32.Castagnoli)); got != want {
		return mi, fmt.Errorf("tsq: shard manifest checksum mismatch (stored %08x, computed %08x): torn or corrupt manifest", got, want)
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != 1 {
		return mi, fmt.Errorf("tsq: unsupported shard manifest version %d", v)
	}
	mi.shards = int(binary.LittleEndian.Uint32(buf[8:]))
	mi.indexParams = getParams(buf[12:])
	if mi.shards < 2 || mi.shards > 1<<16 {
		return mi, fmt.Errorf("tsq: corrupt shard manifest: implausible shard count %d", mi.shards)
	}
	if mi.n <= 0 || mi.k <= 0 || mi.k > mi.n {
		return mi, fmt.Errorf("tsq: corrupt shard manifest: n=%d k=%d", mi.n, mi.k)
	}
	return mi, nil
}

// writeManifest commits the manifest of a sharded database: written in
// one call and synced, after every shard file is already durable. One
// page file has no manifest.
func (files dbFiles) writeManifest() error {
	if files.mi == nil {
		return nil
	}
	return writeSynced(files.path, os.O_CREATE|os.O_TRUNC, encodeManifest(*files.mi), "shard manifest")
}

// writeSynced writes data at the start of path in one call and syncs it.
func writeSynced(path string, flag int, data []byte, what string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|flag, 0o644)
	if err != nil {
		return fmt.Errorf("tsq: %w", err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		_ = f.Close()
		return fmt.Errorf("tsq: writing %s: %w", what, err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("tsq: syncing %s: %w", what, err)
	}
	return f.Close()
}

// readHead reads up to n bytes from the start of path; a file shorter
// than n returns what it holds and an error wrapping io.EOF.
func readHead(path string, n int) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tsq: %w", err)
	}
	defer f.Close()
	buf := make([]byte, n)
	m, err := f.ReadAt(buf, 0)
	if err != nil {
		err = fmt.Errorf("tsq: reading file header: %w", err)
	}
	return buf[:m], err
}

// openMode selects how openShardFile treats the write-ahead log.
type openMode int

const (
	// openRW is the normal open: acked-but-unfolded WAL records are
	// replayed into the file (then checkpointed away), the torn tail is
	// truncated, and the index accepts writes.
	openRW openMode = iota
	// openScrub is the read-only open used by CheckFile: pending WAL
	// records are replayed into a memory overlay only — the file and the
	// log are not modified — and the index refuses writes.
	openScrub
)

// OpenFile reopens a database created by CreateFile, from one page file
// or from the shard files its manifest names. Files written with and
// without page checksums are both recognized (the raw header flags field
// says which). Recovery runs here: any Insert/Delete that was
// acknowledged before a crash is replayed from the write-ahead log
// before the first query sees the index.
func OpenFile(path string) (*DB, error) {
	return openFileAny(path, nil, openRW)
}

// openFileAny is OpenFile with the fault-injection hook of createFile
// and a choice of mode. It opens every page file of the database in
// order and puts them together. A shard that fails validation or
// disagrees with the manifest is reported by ordinal and path: a
// half-written shard set never opens.
func openFileAny(path string, wrap func(storage.Backend) storage.Backend, mode openMode) (*DB, error) {
	files, err := resolveFiles(path)
	if err != nil {
		return nil, err
	}
	shards := make([]*core.Index, 0, len(files.paths))
	for i, p := range files.paths {
		ix, si, err := openShardFile(p, wrap, mode)
		if err == nil {
			shards = append(shards, ix)
			err = files.check(si)
		}
		if err != nil {
			closeIndexes(shards)
			return nil, files.shardErr(i, err)
		}
	}
	return assemble(shards)
}

// openShardFile opens one page file and returns its index and its
// superblock, replaying the write-ahead log first.
//
// Recovery is physical redo: each pending record carries the full
// after-image of every page its operation wrote, so replay rewrites
// those pages (through the checksum layer, which recomputes trailers)
// and is idempotent — a crash during recovery just replays again. In
// openScrub mode the images land in the staging overlay instead, so
// the scrubber sees the healed state without modifying anything.
func openShardFile(path string, wrap func(storage.Backend) storage.Backend, mode openMode) (ix *core.Index, si superInfo, err error) {
	physPageSize, checksummed, err := readRawHeader(path)
	if err != nil {
		return nil, si, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, si, fmt.Errorf("tsq: %w", err)
	}
	// Read the log before building the manager: replayed images can lie
	// past the file's current end (the crash happened before the grown
	// pages were flushed), and allocation must resume after them.
	var (
		wlog    *wal.Log
		pending []wal.Record
		mgr     *storage.Manager
	)
	defer func() {
		if err != nil && mgr != nil {
			_ = mgr.Close()
		}
		if err != nil && wlog != nil {
			_ = wlog.Close()
		}
	}()
	if mode == openRW {
		if wlog, pending, err = openWAL(path); err != nil {
			return nil, si, err
		}
	} else if pending, _, err = wal.ReadPending(walPath(path)); err != nil {
		return nil, si, fmt.Errorf("tsq: reading write-ahead log: %w", err)
	}
	staged, pageSize, err := pageStack(path, physPageSize, checksummed, wrap)
	if err != nil {
		return nil, si, err
	}
	// Resume allocation after the last page the file covers — or after
	// the last page the WAL is about to replay, whichever is further —
	// so post-reopen inserts cannot overwrite live pages.
	firstUnallocated := storage.PageID((st.Size() + int64(physPageSize) - 1) / int64(physPageSize))
	for _, rec := range pending {
		for _, img := range rec.Pages {
			if img.ID >= firstUnallocated {
				firstUnallocated = img.ID + 1
			}
		}
	}
	mgr = storage.NewManager(storage.Options{
		PageSize:         pageSize,
		Backend:          staged,
		FirstUnallocated: firstUnallocated,
	})
	if mode == openScrub && len(pending) > 0 {
		// Overlay-only replay: the transaction is deliberately never
		// committed or aborted; Close discards it.
		staged.Begin()
	}
	for _, rec := range pending {
		for _, img := range rec.Pages {
			if err := mgr.Write(img.ID, img.Data); err != nil {
				return nil, si, fmt.Errorf("tsq: replaying WAL record %d (page %d): %w", rec.LSN, img.ID, err)
			}
		}
	}
	if mode == openRW && len(pending) > 0 {
		// Fold the replayed images in and start from an empty log.
		if err := mgr.Sync(); err != nil {
			return nil, si, fmt.Errorf("tsq: syncing replayed WAL records: %w", err)
		}
		if err := wlog.Checkpoint(); err != nil {
			return nil, si, fmt.Errorf("tsq: checkpointing after replay: %w", err)
		}
		wal.NoteReplayed(int64(len(pending)))
	}
	buf := make([]byte, pageSize)
	if err := mgr.Read(storage.PageID(1), buf); err != nil {
		return nil, si, fmt.Errorf("tsq: reading superblock: %w", err)
	}
	si, err = decodeSuper(buf)
	if err != nil {
		return nil, si, err
	}
	if si.checksummed != checksummed {
		return nil, si, fmt.Errorf("tsq: corrupt file: header says checksums=%v but superblock says checksums=%v",
			checksummed, si.checksummed)
	}
	// The structural roots must lie inside the file, or every later page
	// access chases garbage.
	for _, ref := range []struct {
		name string
		id   storage.PageID
	}{{"tree meta", si.treeMeta}, {"heap directory", si.heapDir}} {
		if ref.id >= firstUnallocated {
			return nil, si, fmt.Errorf("tsq: corrupt superblock: %s page %d outside file (%d pages)",
				ref.name, ref.id, firstUnallocated)
		}
	}
	ix, err = core.OpenIndex(mgr, si.treeMeta, si.heapDir, si.n, core.IndexOptions{
		K:           si.k,
		PageSize:    pageSize,
		UseSymmetry: si.symmetry,
	})
	if err != nil {
		return nil, si, err
	}
	if mode == openRW {
		ix.AttachWAL(wlog, staged)
	} else {
		ix.SetReadOnly()
	}
	return ix, si, nil
}

// readRawHeader reads and validates the page-0 raw header, returning
// the physical page size and whether the pages carry checksums.
func readRawHeader(path string) (int, bool, error) {
	header, err := readHead(path, rawHeaderSize)
	if err != nil {
		return 0, false, err
	}
	if [4]byte(header[:4]) != fileMagic {
		return 0, false, fmt.Errorf("tsq: %s is not a tsq database (magic %q)", path, header[:4])
	}
	pageSize := int(binary.LittleEndian.Uint32(header[4:]))
	if pageSize < 512 || pageSize > 1<<20 {
		return 0, false, fmt.Errorf("tsq: implausible page size %d in %s", pageSize, path)
	}
	return pageSize, binary.LittleEndian.Uint32(header[8:])&rawFlagChecksums != 0, nil
}

// writeRawHeader stores the file magic, page size, and format flags in
// the reserved page-0 region, syncing the file before returning: the
// header is the create-time commit record.
func writeRawHeader(path string, pageSize int, checksummed bool) error {
	header := make([]byte, rawHeaderSize)
	copy(header, fileMagic[:])
	binary.LittleEndian.PutUint32(header[4:], uint32(pageSize))
	if checksummed {
		binary.LittleEndian.PutUint32(header[8:], rawFlagChecksums)
	}
	return writeSynced(path, 0, header, "file header")
}

// Close releases the storage behind the database. Queries must not be
// issued afterwards.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.ix.Close()
}

// Insert adds a series to the database (and to the file, for file-backed
// databases), returning its id.
func (db *DB) Insert(name string, s Series) (int64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.ix.Insert(name, s)
}

// Delete removes series id from the database. Its id is not reused.
func (db *DB) Delete(id int64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.ix.Delete(id)
}

// Checkpoint folds outstanding write-ahead-log records into the main
// file (every shard, for sharded databases) and truncates the logs.
// Writes already checkpoint automatically when a log outgrows its
// threshold, and Close checkpoints too; an explicit call is for tests
// and operators that want the log empty at a known point. A no-op for
// in-memory databases.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.ix.Checkpoint()
}
