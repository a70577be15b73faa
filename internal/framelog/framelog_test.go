package framelog_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"tsq/internal/framelog"
	"tsq/internal/framelog/framelogtest"
)

var testMagic = [framelog.MagicSize]byte{'T', 'S', 'Q', 'T', 'E', 'S', 'T', '1'}

const testMax = 1 << 10

// frame encodes one frame behind buf.
func frame(buf []byte, kind uint8, payload []byte) []byte {
	start := len(buf)
	return framelog.Finish(append(framelog.Begin(buf, kind), payload...), start)
}

// testPayload is record i of the sweep workload.
func testPayload(i int) []byte {
	return bytes.Repeat([]byte{byte(i + 1)}, 3+5*i)
}

func acceptTestMagic(found [framelog.MagicSize]byte) error {
	if found != testMagic {
		return fmt.Errorf("foreign magic %q", found[:])
	}
	return nil
}

func TestEncoderLayout(t *testing.T) {
	got := frame([]byte("prefix"), 7, []byte("abc"))
	// kind, length 3 little endian, payload, CRC32C of those eight bytes
	// (0x985b5e1b by a bitwise reference implementation).
	want := append([]byte("prefix"), 7, 3, 0, 0, 0, 'a', 'b', 'c', 0x1b, 0x5e, 0x5b, 0x98)
	if !bytes.Equal(got, want) {
		t.Fatalf("frame = %x, want %x", got, want)
	}
	if empty := frame(nil, 1, nil); len(empty) != 9 {
		t.Fatalf("an empty payload frames to %d bytes, want 9", len(empty))
	}
}

// TestScannerStops: each way an input can end yields its Stop, the frames
// before it, and End at the last intact frame's end.
func TestScannerStops(t *testing.T) {
	two := frame(frame(nil, 1, []byte("first")), 2, []byte("second"))
	third := frame(nil, 3, []byte("third"))
	flipped := append([]byte(nil), third...)
	flipped[6] ^= 0x10
	huge := []byte{1, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3}
	cases := []struct {
		name string
		tail []byte
		want framelog.Stop
	}{
		{"clean end", nil, framelog.CleanEnd},
		{"torn header", third[:3], framelog.TornHeader},
		{"torn payload", third[:7], framelog.TornPayload},
		{"torn crc", third[:len(third)-1], framelog.TornPayload},
		{"oversized", huge, framelog.Oversized},
		{"bad crc", flipped, framelog.BadCRC},
		{"bad crc then more", append(append([]byte(nil), flipped...), third...), framelog.BadCRC},
	}
	for _, c := range cases {
		sc := framelog.NewScanner(bytes.NewReader(append(append([]byte(nil), two...), c.tail...)), testMax)
		var kinds []uint8
		for {
			kind, payload, ok := sc.Next()
			if !ok {
				break
			}
			if want := map[uint8]string{1: "first", 2: "second"}[kind]; string(payload) != want {
				t.Errorf("%s: frame %d carries %q, want %q", c.name, kind, payload, want)
			}
			kinds = append(kinds, kind)
		}
		if len(kinds) != 2 || sc.Stop() != c.want || sc.End() != framelog.MagicSize+int64(len(two)) || sc.Err() != nil {
			t.Errorf("%s: %d frames, stop %v, end %d, err %v; want 2 frames, %v, end %d",
				c.name, len(kinds), sc.Stop(), sc.End(), sc.Err(), c.want, framelog.MagicSize+len(two))
		}
		if _, _, ok := sc.Next(); ok {
			t.Errorf("%s: a stopped scanner yielded a frame", c.name)
		}
	}
}

// failingReader fails once its bytes are spent.
type failingReader struct {
	r   io.Reader
	err error
}

func (f failingReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err == io.EOF {
		err = f.err
	}
	return n, err
}

// TestScannerKeepsReadErrors: a failed read is not a torn tail.
func TestScannerKeepsReadErrors(t *testing.T) {
	boom := errors.New("boom")
	whole := frame(nil, 1, []byte("payload"))
	sc := framelog.NewScanner(failingReader{bytes.NewReader(whole[:8]), boom}, testMax)
	if _, _, ok := sc.Next(); ok || !errors.Is(sc.Err(), boom) {
		t.Fatalf("ok %v, err %v; want the read error", ok, sc.Err())
	}
	sc = framelog.NewScanner(failingReader{bytes.NewReader(whole), boom}, testMax)
	err := sc.Each(func(uint8, []byte) error { return nil })
	if !errors.Is(err, boom) || sc.End() != framelog.MagicSize+int64(len(whole)) {
		t.Fatalf("Each = %v at end %d; want the read error behind one frame", err, sc.End())
	}
}

func TestOpenAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	open := func() (framelog.Device, int64, int64, []string, error) {
		t.Helper()
		dev, err := framelog.OpenDevice(path)
		if err != nil {
			t.Fatal(err)
		}
		var seen []string
		end, torn, err := framelog.OpenAppend(dev, testMagic, acceptTestMagic, testMax, func(kind uint8, p []byte) error {
			if kind == 9 {
				return errors.New("refused")
			}
			seen = append(seen, string(p))
			return nil
		})
		return dev, end, torn, seen, err
	}
	fileIs := func(want []byte) {
		t.Helper()
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("file = %x (%v), want %x", got, err, want)
		}
	}

	// Fresh, and a magic torn mid-create: initialised.
	for _, start := range [][]byte{nil, testMagic[:5]} {
		if err := os.WriteFile(path, start, 0o644); err != nil {
			t.Fatal(err)
		}
		dev, end, torn, seen, err := open()
		if err != nil || end != framelog.MagicSize || torn != 0 || len(seen) != 0 {
			t.Fatalf("fresh open: end %d torn %d seen %v err %v", end, torn, seen, err)
		}
		_ = dev.Close()
		fileIs(testMagic[:])
	}

	// Two frames and a torn third: visited, truncated, torn bytes counted.
	good := frame(frame(testMagic[:], 1, []byte("a")), 2, []byte("bc"))
	tail := frame(nil, 3, []byte("def"))[:6]
	if err := os.WriteFile(path, append(append([]byte(nil), good...), tail...), 0o644); err != nil {
		t.Fatal(err)
	}
	dev, end, torn, seen, err := open()
	if err != nil || end != int64(len(good)) || torn != int64(len(tail)) || fmt.Sprint(seen) != "[a bc]" {
		t.Fatalf("torn open: end %d torn %d seen %v err %v", end, torn, seen, err)
	}
	_ = dev.Close()
	fileIs(good)

	// A visitor's refusal names the frame and leaves the file alone.
	refused := append(frame(append([]byte(nil), good...), 9, []byte("x")), tail...)
	if err := os.WriteFile(path, refused, 0o644); err != nil {
		t.Fatal(err)
	}
	dev, _, _, _, err = open()
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte(fmt.Sprintf("offset %d", len(good)))) {
		t.Fatalf("refused frame: %v, want an error naming offset %d", err, len(good))
	}
	_ = dev.Close()
	fileIs(refused)

	// So does a foreign magic.
	foreign := []byte("NOTALOG0 and some trailing bytes")
	if err := os.WriteFile(path, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	dev, _, _, _, err = open()
	if err == nil {
		t.Fatal("a foreign file opened for append")
	}
	_ = dev.Close()
	fileIs(foreign)
}

// rawLog is the smallest codec there is: frames of kind 1 written one
// WriteAt each, made durable by Sync.
type rawLog struct {
	dev framelog.Device
	end int64
}

func (l *rawLog) Append(i int) error {
	buf := frame(nil, 1, testPayload(i))
	if _, err := l.dev.WriteAt(buf, l.end); err != nil {
		return err
	}
	l.end += int64(len(buf))
	return nil
}
func (l *rawLog) Sync() error  { return l.dev.Sync() }
func (l *rawLog) Close() error { return l.dev.Close() }

// TestFaultSweepRaw runs the shared crash sweep over the package's own
// pieces (OpenAppend, the encoder, a read-only Scanner) with no codec in
// between; internal/wal and internal/obs/capture run it over theirs.
func TestFaultSweepRaw(t *testing.T) {
	framelogtest.Sweep(t, framelogtest.Codec{
		Appends: 6,
		Open: func(dev framelog.Device) (framelogtest.Log, error) {
			end, _, err := framelog.OpenAppend(dev, testMagic, acceptTestMagic, testMax, func(uint8, []byte) error { return nil })
			return &rawLog{dev: dev, end: end}, err
		},
		Recovered: func(path string) (int, error) {
			data, err := os.ReadFile(path)
			if err != nil || len(data) < framelog.MagicSize {
				return 0, err
			}
			n := 0
			err = framelog.NewScanner(bytes.NewReader(data[framelog.MagicSize:]), testMax).Each(func(_ uint8, p []byte) error {
				if !bytes.Equal(p, testPayload(n)) {
					return fmt.Errorf("record %d diverges from the workload", n)
				}
				n++
				return nil
			})
			return n, err
		},
	})
}

// FuzzScanner scans arbitrary bytes behind a valid magic: it never panics,
// End never runs past the input, and every frame it yields re-encodes to
// exactly the bytes it was read from.
func FuzzScanner(f *testing.F) {
	two := frame(frame(nil, 1, []byte("first")), 2, nil)
	f.Add(two)
	f.Add(two[:len(two)-2])
	f.Add(append(append([]byte(nil), two...), 1, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3))
	flipped := append([]byte(nil), two...)
	flipped[7] ^= 1
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := framelog.NewScanner(bytes.NewReader(data), testMax)
		at := 0
		for {
			kind, payload, ok := sc.Next()
			if !ok {
				break
			}
			again := frame(nil, kind, payload)
			if !bytes.HasPrefix(data[at:], again) {
				t.Fatalf("frame at %d re-encodes to %x, input holds %x", at, again, data[at:])
			}
			at += len(again)
			if sc.End() != framelog.MagicSize+int64(at) {
				t.Fatalf("End = %d behind %d bytes of frames", sc.End(), at)
			}
		}
		if sc.End() > framelog.MagicSize+int64(len(data)) || sc.End() != framelog.MagicSize+int64(at) {
			t.Fatalf("End = %d, frames cover %d of %d input bytes", sc.End(), at, len(data))
		}
		if (sc.Stop() == framelog.CleanEnd) != (at == len(data)) {
			t.Fatalf("stop %v with %d of %d bytes consumed", sc.Stop(), at, len(data))
		}
		if sc.Err() != nil {
			t.Fatalf("reading from memory failed: %v", sc.Err())
		}
	})
}
