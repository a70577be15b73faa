package heapfile

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"tsq/internal/storage"
)

// writeLog is a backend that remembers which pages were written.
type writeLog struct {
	storage.Backend
	written []storage.PageID
}

func (w *writeLog) WritePage(id storage.PageID, buf []byte) error {
	w.written = append(w.written, id)
	return w.Backend.WritePage(id, buf)
}

// fullDirectory is the reference Sync: the image of every page of the
// chain, as the rewrite of the whole directory produced it before Sync
// learned to skip the pages that did not change.
func fullDirectory(f *File) [][]byte {
	ps := f.mgr.PageSize()
	var images [][]byte
	remaining := f.verify
	for slot := 0; ; slot++ {
		count := min(len(remaining), f.dirEntries(slot))
		next := storage.NilPage
		if count < len(remaining) {
			next = f.dirPages[slot+1]
		}
		buf := make([]byte, ps)
		copy(buf, dirMagic[:])
		binary.LittleEndian.PutUint32(buf[4:], uint32(count))
		binary.LittleEndian.PutUint32(buf[8:], uint32(next))
		if slot == 0 {
			binary.LittleEndian.PutUint32(buf[12:], uint32(f.packed))
			binary.LittleEndian.PutUint32(buf[16:], uint32(f.rawFirst))
			binary.LittleEndian.PutUint32(buf[20:], uint32(f.rawPerPage))
		}
		for i, id := range remaining[:count] {
			binary.LittleEndian.PutUint32(buf[dirHeaderSize+4*i:], uint32(id))
		}
		images = append(images, buf)
		remaining = remaining[count:]
		if next == storage.NilPage {
			return images
		}
	}
}

// TestDirectorySyncWritesOnlyWhatChanged drives a heap whose directory
// holds 17 entries a page (its head none) through random appends, unappends, syncs and
// rolled-back transactions, so the chain spills, shrinks and is restored.
// After every Sync the chain on disk must be, byte for byte, what the
// full rewrite writes, a reopened heap must list the same record pages,
// and a Sync that follows appends only must have written exactly the
// directory pages whose bytes changed: one for a single append, two when
// that append linked a new page.
func TestDirectorySyncWritesOnlyWhatChanged(t *testing.T) {
	const n = 1
	ps := insertSize(n, 0) // the smallest page that holds a record
	perPage := (ps - dirHeaderSize) / 4
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stage := storage.NewStagedBackend(storage.NewMemBackend(ps))
		log := &writeLog{Backend: stage}
		mgr := storage.NewManager(storage.Options{PageSize: ps, Backend: log})
		f, err := Create(mgr, n)
		if err != nil {
			t.Fatal(err)
		}
		disk := fullDirectory(f) // the chain as last synced
		appends, others := 0, 0  // mutations since the last Sync
		floor := 0               // no unappend below this many records
		spilled, shrank := false, false
		falling := false // the record count drifts down, not up
		read := func(id storage.PageID) []byte {
			buf := make([]byte, ps)
			if err := mgr.Read(id, buf); err != nil {
				t.Fatal(err)
			}
			return buf
		}
		mutate := func() {
			if len(f.verify) > 4*perPage {
				falling = true
			} else if len(f.verify) == 0 {
				falling = false
			}
			odds := 3 // in 10 an unappend
			if falling {
				odds = 7
			}
			if len(f.verify) > floor && rng.Intn(10) < odds {
				if err := f.Unappend(int64(len(f.verify) - 1)); err != nil {
					t.Fatal(err)
				}
				others++
				return
			}
			if _, err := f.Append(randRec(rng, n, "")); err != nil {
				t.Fatal(err)
			}
			appends++
		}
		sync := func(step int) {
			log.written = log.written[:0]
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			want := fullDirectory(f)
			var changed []storage.PageID
			for slot, img := range want {
				if got := read(f.dirPages[slot]); !bytes.Equal(got, img) {
					t.Fatalf("seed %d step %d: directory page %d (slot %d, %d records) differs from the full rewrite's", seed, step, f.dirPages[slot], slot, len(f.verify))
				}
				if slot >= len(disk) || !bytes.Equal(disk[slot], img) {
					changed = append(changed, f.dirPages[slot])
				}
			}
			g, err := Open(mgr, f.DirHead(), n)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if !slices.Equal(g.verify, f.verify) {
				t.Fatalf("seed %d step %d: reopened heap lists %v, want %v", seed, step, g.verify, f.verify)
			}
			if others == 0 {
				if !slices.Equal(log.written, changed) {
					t.Fatalf("seed %d step %d: Sync after %d appends wrote pages %v, changed are %v", seed, step, appends, log.written, changed)
				}
				grew := len(want) > len(disk)
				if wrote := len(log.written); appends == 1 && wrote != 1 && !(grew && wrote == 2) {
					t.Fatalf("seed %d step %d: one append (chain grew: %v) wrote %d directory pages", seed, step, grew, wrote)
				}
			}
			spilled = spilled || len(want) > len(disk)
			shrank = shrank || len(want) < len(disk)
			disk, appends, others = want, 0, 0
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				mutate()
			case op < 9:
				sync(step)
			default:
				// A transaction that is rolled back, the way core's
				// abortStaged does it: the heap forgets what it did (a
				// transaction unappends only what it appended) and the pages
				// it grew go back to the allocator.
				a, o := appends, others
				mem := f.MemState()
				floor = len(f.verify)
				stage.Begin()
				mgr.HoldFrees()
				for i := rng.Intn(2 * perPage); i > 0; i-- {
					mutate()
					if rng.Intn(4) == 0 {
						if err := f.Sync(); err != nil {
							t.Fatal(err)
						}
					}
				}
				_, grown := stage.Abort()
				mgr.ReleaseFrees(false)
				for _, id := range grown {
					mgr.Free(id)
				}
				f.RestoreMemState(mem)
				appends, others, floor = a, o, 0
			}
		}
		sync(400)
		if !spilled || !shrank {
			t.Fatalf("seed %d: directory spilled: %v, shrank: %v", seed, spilled, shrank)
		}
	}
}
