package heapfile

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tsq/internal/storage"
)

const fuzzPageSize, fuzzN = 512, 8

// fuzzSeeds returns page images of every kind a heap of fuzzN-long
// series on fuzzPageSize pages holds: a packed verify page of three
// records (0, 1, 2), a raw page of the same, an insert page (record 3),
// a format-1 record page (record 0), and a tombstoned copy of each kind.
func fuzzSeeds(t testing.TB) (verify, raw, insert, format1 []byte) {
	mgr := storage.NewManager(storage.Options{PageSize: fuzzPageSize})
	defer mgr.Close()
	hf, err := Create(mgr, fuzzN)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	recs := []*Rec{randRec(rng, fuzzN, "a"), randRec(rng, fuzzN, strings.Repeat("long-name/", 5)), randRec(rng, fuzzN, "")}
	if err := hf.Pack(recs, [][]int{{2, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := hf.Append(randRec(rng, fuzzN, "late")); err != nil {
		t.Fatal(err)
	}
	read := func(id storage.PageID) []byte {
		buf := make([]byte, fuzzPageSize)
		if err := mgr.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	return read(hf.verify[0]), read(hf.rawPage(0)), read(hf.verify[3]), format1Page(fuzzPageSize, recs[0])
}

// fuzzHeap returns a heap whose records 0..3 all have both parts on one
// page, which a fuzz image is written to.
func fuzzHeap(t *testing.T) (*storage.Manager, *File, storage.PageID) {
	mgr := storage.NewManager(storage.Options{PageSize: fuzzPageSize})
	hf, err := Create(mgr, fuzzN)
	if err != nil {
		t.Fatal(err)
	}
	page, err := mgr.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	for range 4 {
		hf.verify = append(hf.verify, page)
	}
	return mgr, hf, page
}

// fixImage copies data into a page image and, when fix, gives it a page
// kind of the split format or format 1, the heap's series length and a
// valid CRC, so the fuzzer gets past those tests with otherwise arbitrary
// bytes.
func fixImage(data []byte, fix uint8) []byte {
	buf := make([]byte, fuzzPageSize)
	copy(buf, data)
	if fix&1 != 0 {
		buf[0] = []byte{kindVerify, kindSeries, kindInsert, kindRecord}[fix>>1&3]
		binary.LittleEndian.PutUint32(buf[4:], fuzzN)
		binary.LittleEndian.PutUint32(buf[8:], 0)
		binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(buf))
	}
	return buf
}

// FuzzDecodeRec feeds the part decoders arbitrary page images. Whatever
// the bytes, a decode yields a part, a deletion or an error that says what
// is wrong — never a panic — and decoding image A and then image B into
// one slot leaves exactly what a fresh decode of B leaves: nothing of A
// shows through a shorter name, a deletion or a failed decode.
func FuzzDecodeRec(f *testing.F) {
	verify, raw, insert, format1 := fuzzSeeds(f)
	tomb := bytes.Clone(format1)
	tomb[0] = kindTomb
	f.Add(insert, format1, uint8(0))
	f.Add(format1, insert, uint8(0))
	f.Add(verify, tomb, uint8(0))
	f.Add(raw, verify, uint8(0))
	f.Add(insert, []byte("V garbage"), uint8(1))
	f.Add([]byte{}, raw[:100], uint8(3))
	f.Add(format1, bytes.Repeat([]byte{0xff}, 200), uint8(7)) // NaNs

	f.Fuzz(func(t *testing.T, a, b []byte, fix uint8) {
		mgr, hf, _ := fuzzHeap(t)
		defer mgr.Close()
		// decode checks the image, as a fetch does once per page, and
		// decodes both parts of rec from it when it passes.
		decode := func(buf []byte, rec int64, v *View, r *RawView) (bool, bool, string) {
			before := bytes.Clone(buf)
			if err := hf.checkPage(buf); err != nil {
				*v, *r = View{}, RawView{} // a fetch stops before any decode
				return false, false, err.Error()
			}
			live, err := hf.decodeVerify(buf, rec, v)
			rawLive, rerr := hf.decodeRaw(buf, rec, r)
			if !bytes.Equal(buf, before) {
				t.Fatal("decode changed the page image")
			}
			msg := ""
			if err != nil {
				msg = err.Error()
			}
			if rerr != nil {
				msg += "|" + rerr.Error()
			}
			if err != nil && live || rerr != nil && rawLive {
				t.Fatalf("decode failed live: %q", msg)
			}
			return live, rawLive, msg
		}
		imgA, imgB := fixImage(a, fix), fixImage(b, fix>>3)
		for rec := int64(0); rec < 4; rec++ {
			var slot, fresh View
			var rslot, rfresh RawView
			decode(imgA, rec, &slot, &rslot)
			liveSlot, rawSlot, errSlot := decode(imgB, rec, &slot, &rslot)
			liveFresh, rawFresh, errFresh := decode(imgB, rec, &fresh, &rfresh)
			if liveSlot != liveFresh || rawSlot != rawFresh || errSlot != errFresh {
				t.Fatalf("B after A: live=%v/%v err=%q; B alone: live=%v/%v err=%q", liveSlot, rawSlot, errSlot, liveFresh, rawFresh, errFresh)
			}
			if !liveSlot && len(slot.Mags)+len(slot.Phases) != 0 || !rawSlot && len(rslot.Name)+len(rslot.Raw) != 0 {
				t.Fatal("the slot shows a record after a deletion or a failed decode")
			}
			if liveSlot && (len(slot.Mags) != fuzzN || len(slot.Phases) != fuzzN) || rawSlot && len(rslot.Raw) != fuzzN {
				t.Fatalf("decoded arrays %d/%d/%d, want %d", len(slot.Mags), len(slot.Phases), len(rslot.Raw), fuzzN)
			}
			// Bit for bit: arbitrary bytes decode to NaNs, which == rejects.
			same := bytes.Equal(rslot.Name, rfresh.Name) &&
				math.Float64bits(slot.Mean) == math.Float64bits(fresh.Mean) &&
				math.Float64bits(slot.Std) == math.Float64bits(fresh.Std)
			for i := range slot.Mags {
				same = same && math.Float64bits(slot.Mags[i]) == math.Float64bits(fresh.Mags[i]) &&
					math.Float64bits(slot.Phases[i]) == math.Float64bits(fresh.Phases[i])
			}
			for i := range rslot.Raw {
				same = same && math.Float64bits(rslot.Raw[i]) == math.Float64bits(rfresh.Raw[i])
			}
			if !same {
				t.Fatal("B decoded after A differs from B decoded alone")
			}
		}
	})
}

// FuzzDecodeHeapPage writes arbitrary bytes as the page of four records'
// parts and fetches every record through each view and through the
// health scan: each either decodes, reads as deleted, or fails with an
// error that names the page — never a panic, and never a part of another
// record.
func FuzzDecodeHeapPage(f *testing.F) {
	verify, raw, insert, format1 := fuzzSeeds(f)
	f.Add(verify, uint8(0))
	f.Add(raw, uint8(0))
	f.Add(insert, uint8(0))
	f.Add(format1, uint8(0))
	f.Add(verify[:40], uint8(1))
	f.Add(bytes.Repeat([]byte{0xff}, fuzzPageSize), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, fix uint8) {
		mgr, hf, page := fuzzHeap(t)
		defer mgr.Close()
		if err := mgr.Write(page, fixImage(data, fix)); err != nil {
			t.Fatal(err)
		}
		named := func(err error) {
			if err != nil && !strings.HasPrefix(err.Error(), "heapfile: page ") {
				t.Fatalf("unnamed error %q", err)
			}
		}
		for rec := int64(0); rec < 4; rec++ {
			var s Scratch
			named(hf.Visit(nil, []int64{rec}, &s, func(_ int, v *View) error {
				if v != nil && (len(v.Mags) != fuzzN || len(v.Phases) != fuzzN) {
					t.Fatalf("record %d: a view of %d/%d coefficients", rec, len(v.Mags), len(v.Phases))
				}
				return nil
			}))
			named(hf.VisitRaw(nil, []int64{rec}, &s, func(_ int, v *RawView) error {
				if v != nil && len(v.Raw) != fuzzN {
					t.Fatalf("record %d: a series of %d values", rec, len(v.Raw))
				}
				return nil
			}))
			_, err := hf.Read(rec)
			named(err)
		}
		_, err := hf.ComputeHealth(nil)
		named(err)
	})
}
