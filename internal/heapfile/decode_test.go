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

// FuzzDecodeRec feeds the record decoder arbitrary page images. Whatever
// the bytes, a decode yields a record, a tombstone or an error that says
// what is wrong — never a panic — and decoding image A and then image B
// into one slot leaves exactly what a fresh decode of B leaves: nothing
// of A shows through a shorter name, a tombstone or a failed decode. The
// fix bits let the fuzzer past the magic, length and checksum tests with
// otherwise arbitrary bytes.
func FuzzDecodeRec(f *testing.F) {
	const pageSize, n = 512, 8
	page := func(r *Rec) []byte {
		mgr := storage.NewManager(storage.Options{PageSize: pageSize})
		defer mgr.Close()
		hf, err := Create(mgr, n)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := hf.Append(r); err != nil {
			f.Fatal(err)
		}
		buf := make([]byte, pageSize)
		if err := mgr.Read(hf.pages[0], buf); err != nil {
			f.Fatal(err)
		}
		return buf
	}
	rng := rand.New(rand.NewSource(3))
	short, long := page(randRec(rng, n, "a")), page(randRec(rng, n, strings.Repeat("long-name/", 20)))
	tomb := bytes.Clone(short)
	tomb[0] = 'D'
	overflow := bytes.Clone(short)
	binary.LittleEndian.PutUint16(overflow[2:], 400) // name runs off the page
	f.Add(long, short, uint8(0))
	f.Add(short, long, uint8(0))
	f.Add(long, tomb, uint8(0))
	f.Add(long, overflow, uint8(2))
	f.Add(short, []byte("R garbage"), uint8(2))
	f.Add([]byte{}, long[:100], uint8(3))
	f.Add(long, bytes.Repeat([]byte{0xff}, 200), uint8(2)) // NaNs

	f.Fuzz(func(t *testing.T, a, b []byte, fix uint8) {
		mgr := storage.NewManager(storage.Options{PageSize: pageSize})
		defer mgr.Close()
		hf, err := Create(mgr, n)
		if err != nil {
			t.Fatal(err)
		}
		hf.pages = append(hf.pages, 7) // decode only names the page in errors
		image := func(data []byte, fix bool) []byte {
			buf := make([]byte, pageSize)
			copy(buf, data)
			if fix {
				buf[0] = 'R'
				binary.LittleEndian.PutUint32(buf[4:], n)
				binary.LittleEndian.PutUint32(buf[8:], 0)
				binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(buf))
			}
			return buf
		}
		decode := func(buf []byte, v *View) (bool, string) {
			before := bytes.Clone(buf)
			live, err := hf.decode(buf, 0, v)
			if !bytes.Equal(buf, before) {
				t.Fatal("decode changed the page image")
			}
			if err != nil {
				if live || !strings.HasPrefix(err.Error(), "heapfile: ") {
					t.Fatalf("decode failed with live=%v, %q", live, err)
				}
				return false, err.Error()
			}
			return live, ""
		}
		imgA, imgB := image(a, fix&1 != 0), image(b, fix&2 != 0)
		var slot, fresh View
		decode(imgA, &slot)
		liveSlot, errSlot := decode(imgB, &slot)
		liveFresh, errFresh := decode(imgB, &fresh)
		if liveSlot != liveFresh || errSlot != errFresh {
			t.Fatalf("B after A: live=%v err=%q; B alone: live=%v err=%q", liveSlot, errSlot, liveFresh, errFresh)
		}
		if !liveSlot {
			if len(slot.Name)+len(slot.Raw)+len(slot.Mags)+len(slot.Phases) != 0 {
				t.Fatal("the slot shows a record after a tombstone or a failed decode")
			}
			return
		}
		if len(slot.Raw) != n || len(slot.Mags) != n || len(slot.Phases) != n {
			t.Fatalf("decoded arrays %d/%d/%d, want %d", len(slot.Raw), len(slot.Mags), len(slot.Phases), n)
		}
		// Bit for bit: arbitrary bytes decode to NaNs, which == rejects.
		same := bytes.Equal(slot.Name, fresh.Name) &&
			math.Float64bits(slot.Mean) == math.Float64bits(fresh.Mean) &&
			math.Float64bits(slot.Std) == math.Float64bits(fresh.Std)
		for i := 0; i < n; i++ {
			same = same && math.Float64bits(slot.Raw[i]) == math.Float64bits(fresh.Raw[i]) &&
				math.Float64bits(slot.Mags[i]) == math.Float64bits(fresh.Mags[i]) &&
				math.Float64bits(slot.Phases[i]) == math.Float64bits(fresh.Phases[i])
		}
		if !same {
			t.Fatal("B decoded after A differs from B decoded alone")
		}
	})
}
