package framelog

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"

	"tsq/internal/storage"
)

// Device is the byte store under a log. The indirection exists for the
// fault-injection sweeps; production logs sit on an *os.File via
// OpenDevice.
type Device interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
	Size() (int64, error)
}

// fileDevice adapts *os.File to Device.
type fileDevice struct{ *os.File }

func (d fileDevice) Size() (int64, error) {
	st, err := d.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// OpenDevice opens (creating if needed) the log file at path as a Device.
func OpenDevice(path string) (Device, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return fileDevice{f}, nil
}

// FaultDevice wraps a Device and injects deterministic failures into a
// log's own I/O, mirroring storage.FaultBackend for page I/O (same
// kinds, same sentinel errors, same counting discipline) so one sweep
// harness covers both halves of the write path. Write-path operations —
// WriteAt, Sync, Truncate — are counted from 1 in arrival order; ReadAt
// and Size pass through uncounted (they happen during recovery, which
// the sweep drives separately) but are frozen after a crash point like
// everything else.
type FaultDevice struct {
	mu    sync.Mutex
	inner Device
	rng   *rand.Rand
	ops   int64

	failOp  int64
	kind    storage.FaultKind
	crashed bool
}

// NewFaultDevice wraps inner; seed fixes the torn-write prefix lengths.
func NewFaultDevice(inner Device, seed int64) *FaultDevice {
	return &FaultDevice{inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// FailAt arms the device to inject kind at the op-th write-path
// operation from now, counting from 1, clearing any crash state and
// resetting the counter (so sweeps re-arm one device).
func (d *FaultDevice) FailAt(op int64, kind storage.FaultKind) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failOp = op
	d.kind = kind
	d.ops = 0
	d.crashed = false
}

// Ops returns the write-path operations served (or failed) since the
// last FailAt.
func (d *FaultDevice) Ops() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ops
}

// step advances the op counter; caller holds d.mu.
func (d *FaultDevice) step() (storage.FaultKind, error) {
	if d.crashed {
		return storage.FaultNone, storage.ErrCrashed
	}
	d.ops++
	if d.failOp != 0 && d.ops == d.failOp {
		if d.kind == storage.FaultCrash {
			d.crashed = true
			return storage.FaultNone, storage.ErrCrashed
		}
		return d.kind, nil
	}
	return storage.FaultNone, nil
}

// WriteAt implements Device. A torn write applies a random prefix
// before failing — exactly the tail the open-time scan must truncate.
func (d *FaultDevice) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	kind, err := d.step()
	if err != nil {
		return 0, fmt.Errorf("framelog: fault: write at %d: %w", off, err)
	}
	switch kind {
	case storage.FaultNone:
		return d.inner.WriteAt(p, off)
	case storage.FaultTornWrite:
		cut := d.rng.Intn(len(p) + 1)
		if cut > 0 {
			if _, werr := d.inner.WriteAt(p[:cut], off); werr != nil {
				return 0, fmt.Errorf("framelog: fault: torn write at %d: %w", off, werr)
			}
		}
		return 0, fmt.Errorf("framelog: fault: torn write at %d (%d of %d bytes applied): %w",
			off, cut, len(p), storage.ErrInjected)
	default:
		return 0, fmt.Errorf("framelog: fault: write at %d: %w", off, storage.ErrInjected)
	}
}

// counted runs do as one write-path op unless the op is the armed one.
func (d *FaultDevice) counted(what string, do func() error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	kind, err := d.step()
	if err == nil && kind != storage.FaultNone {
		err = storage.ErrInjected
	}
	if err != nil {
		return fmt.Errorf("framelog: fault: %s: %w", what, err)
	}
	return do()
}

// Sync implements Device (counted: a lost fsync is the canonical
// crash-consistency bug).
func (d *FaultDevice) Sync() error { return d.counted("sync", d.inner.Sync) }

// Truncate implements Device (counted: checkpoints and recovery truncate).
func (d *FaultDevice) Truncate(size int64) error {
	return d.counted(fmt.Sprintf("truncate to %d", size), func() error { return d.inner.Truncate(size) })
}

// ReadAt implements Device (uncounted; frozen after a crash).
func (d *FaultDevice) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return 0, fmt.Errorf("framelog: fault: read at %d: %w", off, storage.ErrCrashed)
	}
	return d.inner.ReadAt(p, off)
}

// Size implements Device (uncounted; frozen after a crash).
func (d *FaultDevice) Size() (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return 0, fmt.Errorf("framelog: fault: size: %w", storage.ErrCrashed)
	}
	return d.inner.Size()
}

// Close always reaches the inner device so tests do not leak handles.
func (d *FaultDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inner.Close()
}
