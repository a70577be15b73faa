// Package framelogtest holds the crash sweep every codec over framelog is
// put through: one harness, one instantiation per log.
package framelogtest

import (
	"fmt"
	"path/filepath"
	"testing"

	"tsq/internal/framelog"
	"tsq/internal/storage"
)

// Log is a log open for appending, as the sweep drives it.
type Log interface {
	// Append appends record i of the workload.
	Append(i int) error
	// Sync returns nil once everything appended is durable: the
	// acknowledgement.
	Sync() error
	Close() error
}

// Codec instantiates the sweep for one log.
type Codec struct {
	// Appends is the length of the workload.
	Appends int
	// Open opens the log for appending on dev, recovering what it holds.
	Open func(dev framelog.Device) (Log, error)
	// Recovered reads the file at path without modifying it, fails unless it
	// holds records 0..n-1 of the workload in order, and returns n.
	Recovered func(path string) (int, error)
}

// run opens the log on fd and appends the workload until the first error,
// returning how many appends a Sync acknowledged.
func (c Codec) run(fd *framelog.FaultDevice) (acked int) {
	l, err := c.Open(fd)
	if err != nil {
		_ = fd.Close()
		return 0
	}
	defer func() { _ = l.Close() }()
	for i := 0; i < c.Appends; i++ {
		if l.Append(i) != nil || l.Sync() != nil {
			break
		}
		acked++
	}
	return acked
}

// Sweep injects a crash, then a torn write, at every write-path operation
// of opening a fresh log and appending the workload with a Sync after each
// record. After each fault the file must hold a prefix of the workload that
// includes every acknowledged append (the one in flight may or may not have
// become durable), and a reopen for append must recover exactly that prefix:
// the record it then appends is the next one read back.
func Sweep(t *testing.T, c Codec) {
	newDevice := func(name string, seed int64) (*framelog.FaultDevice, string) {
		path := filepath.Join(t.TempDir(), name)
		dev, err := framelog.OpenDevice(path)
		if err != nil {
			t.Fatal(err)
		}
		return framelog.NewFaultDevice(dev, seed), path
	}
	fd, _ := newDevice("base", 1)
	if acked := c.run(fd); acked != c.Appends {
		t.Fatalf("clean run acknowledged %d of %d appends", acked, c.Appends)
	}
	totalOps := fd.Ops()
	for _, kind := range []storage.FaultKind{storage.FaultCrash, storage.FaultTornWrite} {
		for op := int64(1); op <= totalOps; op++ {
			name := fmt.Sprintf("%v-op%d", kind, op)
			fd, path := newDevice(name, op)
			fd.FailAt(op, kind)
			acked := c.run(fd)
			n, err := c.Recovered(path)
			if err != nil || n < acked || n > acked+1 {
				t.Fatalf("%s: %d appends acknowledged, %d recovered (at most one in flight): %v", name, acked, n, err)
			}
			dev, err := framelog.OpenDevice(path)
			if err != nil {
				t.Fatal(err)
			}
			l, err := c.Open(dev)
			if err != nil || l.Append(n) != nil || l.Sync() != nil || l.Close() != nil {
				t.Fatalf("%s: reopening and appending record %d: %v", name, n, err)
			}
			if again, err := c.Recovered(path); err != nil || again != n+1 {
				t.Fatalf("%s: %d records before the reopen, %d after it appended one: %v", name, n, again, err)
			}
		}
	}
}
