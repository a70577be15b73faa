package wal

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"tsq/internal/framelog"
)

// framePayload returns the payload of the one frame appendFrame wrote.
func framePayload(t testing.TB, rec *Record) []byte {
	t.Helper()
	frame := appendFrame(nil, rec)
	kind, payload, ok := framelog.NewScanner(bytes.NewReader(frame), maxFramePayload).Next()
	if !ok || kind != frameRecord {
		t.Fatalf("appendFrame wrote no readable record frame (kind %d, ok %v)", kind, ok)
	}
	return payload
}

// pageCountClaim is a delete record's payload whose page count field claims
// npages images and then ends: what a crafted log, or one that rotted and
// had its CRC recomputed, can hand the decoder.
func pageCountClaim(t testing.TB, npages uint32) []byte {
	p := framePayload(t, &Record{LSN: 1, Op: OpDelete, ID: 1})
	binary.LittleEndian.PutUint32(p[len(p)-4:], npages)
	return p
}

// TestDecodeRecordBoundsPageCount: a page count the payload cannot hold is a
// named error before anything is allocated for it. The decoder used to
// reserve 32 bytes per claimed page first, up to 128 GiB for one frame, so
// a corrupt log killed OpenFile and CheckFile instead of failing them.
func TestDecodeRecordBoundsPageCount(t *testing.T) {
	p := pageCountClaim(t, 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeRecord(p)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a record claiming 1<<20 page images in 0 bytes decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing a %d-byte payload allocated %d bytes", len(p), grew)
	}
}

// FuzzDecodeRecord: the decoder returns a record or an error, never
// panics, and a payload it accepts is exactly what appendFrame writes for
// the record it returned.
func FuzzDecodeRecord(f *testing.F) {
	for i := 0; i < 3; i++ {
		f.Add(framePayload(f, testRecord(i)))
	}
	f.Add(framePayload(f, &Record{LSN: 9, Op: OpDelete, ID: 3, Pages: []PageImage{{ID: 7, Data: []byte{9}}}}))
	f.Add(pageCountClaim(f, 1<<32-1)) // out of memory before the bound
	f.Add(pageCountClaim(f, 1<<20))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data)
		if err != nil {
			return
		}
		if again := framePayload(t, &rec); !bytes.Equal(again, data) {
			t.Fatalf("accepted payload does not re-encode to itself:\n got %x\nwant %x", again, data)
		}
	})
}
