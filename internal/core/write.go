package core

import (
	"errors"
	"fmt"

	"tsq/internal/geom"
	"tsq/internal/heapfile"
	"tsq/internal/series"
	"tsq/internal/storage"
	"tsq/internal/wal"
)

// DefaultCheckpointThreshold is the WAL size at which a successful
// write triggers an inline checkpoint (fold into the main file, then
// truncate the log). 4 MiB keeps recovery replay short without fsyncing
// the whole file on every operation.
const DefaultCheckpointThreshold = 4 << 20

// ErrReadOnly is returned by Insert/Delete on an index opened for
// scrubbing (the WAL was replayed into a memory overlay, not the file,
// so a write would fork history).
var ErrReadOnly = errors.New("core: index is read-only")

// AttachWAL arms the crash-consistent write path: every Insert/Delete
// is applied against the staging overlay, its page after-images are
// appended to w and fsynced (the acknowledgement point), and only then
// is the overlay flushed to the file. stage must be the StagedBackend
// inside the index's own backend stack — the one its manager writes
// through.
func (ix *Index) AttachWAL(w *wal.Log, stage *storage.StagedBackend) {
	ix.wal = w
	ix.stage = stage
	ix.walThreshold = DefaultCheckpointThreshold
}

// SetReadOnly marks the index read-only: Insert and Delete return
// ErrReadOnly and Close folds nothing back.
func (ix *Index) SetReadOnly() { ix.readOnly = true }

// failStop poisons the index: a mutation left memory or disk in a state
// the code cannot prove consistent, so all further writes are refused.
// Durable state stays recoverable — the WAL record of the failed
// operation (if it was acknowledged) replays on the next open.
func (ix *Index) failStop(err error) {
	if ix.failErr == nil {
		ix.failErr = err
	}
}

// checkWritable gates every mutation.
func (ix *Index) checkWritable() error {
	if ix.readOnly {
		return ErrReadOnly
	}
	if ix.failErr != nil {
		return fmt.Errorf("core: index fail-stopped: %w", ix.failErr)
	}
	return nil
}

// beginStaged opens a staged transaction, under which freed pages are
// set aside, and returns the heap bookkeeping abortStaged restores.
func (ix *Index) beginStaged() (mem heapfile.MemState) {
	if ix.heap != nil {
		mem = ix.heap.MemState()
	}
	ix.stage.Begin()
	ix.mgr.HoldFrees()
	return mem
}

// abortStaged rolls back an open staged transaction: the overlay is
// discarded, stale buffer-pool copies of staged pages are evicted, the
// pages it freed stay allocated (the state rolled back to points at
// them), every page grown during the transaction goes back to the
// allocator, and the heap bookkeeping and tree header are restored from
// their pre-transaction state. An abort that cannot restore the tree
// header fail-stops the index.
func (ix *Index) abortStaged(mem heapfile.MemState) {
	staged, grown := ix.stage.Abort()
	ix.mgr.ReleaseFrees(false)
	for _, id := range staged {
		ix.mgr.Evict(id)
	}
	for _, id := range grown {
		ix.mgr.Free(id)
	}
	if ix.heap != nil {
		ix.heap.RestoreMemState(mem)
	}
	if err := ix.tree.Reload(); err != nil {
		ix.failStop(fmt.Errorf("reloading tree after aborted write: %w", err))
	}
}

// commitStaged is the second half of a WAL-protected write: rec is
// logged with the after-images of the pages the transaction changed, and
// once it is durable the overlay is flushed to the file.
func (ix *Index) commitStaged(rec *wal.Record, mem heapfile.MemState) error {
	rec.Pages = ix.stage.Staged()
	if err := ix.wal.Append(rec); err != nil {
		ix.abortStaged(mem)
		return fmt.Errorf("core: logging %s of record %d: %w", rec.Op, rec.ID, err)
	}
	// The record is durable: this is the acknowledgement point. A flush
	// failure past it leaves the file torn but the operation logged, so
	// the index fail-stops and recovery re-applies the images on the
	// next open.
	err := ix.stage.Commit()
	ix.mgr.ReleaseFrees(err == nil)
	if err != nil {
		ix.failStop(fmt.Errorf("flushing %s of record %d: %w", rec.Op, rec.ID, err))
		return fmt.Errorf("core: flushing %s of record %d (operation is logged and will replay on reopen): %w", rec.Op, rec.ID, err)
	}
	ix.maybeCheckpoint()
	return nil
}

// insertStaged is the WAL-protected insert: stage, log, flush.
func (ix *Index) insertStaged(r *Record, name string, s series.Series) error {
	mem := ix.beginStaged()
	if err := ix.insertDirect(r); err != nil {
		ix.abortStaged(mem)
		return err
	}
	return ix.commitStaged(&wal.Record{Op: wal.OpInsert, ID: r.ID, Name: name, Series: s}, mem)
}

// deleteStaged is the WAL-protected delete: stage, log, flush.
func (ix *Index) deleteStaged(id int64, feat geom.Point) error {
	mem := ix.beginStaged()
	err := ix.tree.Delete(geom.PointRect(feat), id)
	if err == nil && ix.heap != nil {
		err = ix.heap.Delete(id)
	}
	if err != nil {
		ix.abortStaged(mem)
		return err
	}
	return ix.commitStaged(&wal.Record{Op: wal.OpDelete, ID: id}, mem)
}

// maybeCheckpoint folds the WAL into the main file when it has grown
// past the threshold. The write that triggered it is acknowledged either
// way, but any checkpoint error (the file's fsync or the log's
// truncation) fail-stops the index: the log still holds every
// acknowledged write and replays on the next open.
func (ix *Index) maybeCheckpoint() {
	if ix.walThreshold <= 0 || ix.wal.Size() < ix.walThreshold {
		return
	}
	if err := ix.checkpoint(); err != nil {
		ix.failStop(fmt.Errorf("checkpointing: %w", err))
	}
}

// checkpoint makes the main file durable and truncates the WAL: every
// logged operation is already applied to the file's pages (log-then-
// apply), so after one fsync of the file the log carries no information
// the file lacks. No-op without a WAL.
func (ix *Index) checkpoint() error {
	if ix.wal == nil {
		return nil
	}
	if err := ix.checkWritable(); err != nil {
		return err
	}
	if err := ix.mgr.Sync(); err != nil {
		return fmt.Errorf("core: syncing before checkpoint: %w", err)
	}
	return ix.wal.Checkpoint()
}

// Close releases the index's storage, folding the WAL first when the
// index is healthy and writable (so a clean close leaves an empty log
// and the next open replays nothing). A fail-stopped index skips the
// checkpoint: the WAL is the authoritative copy of acknowledged writes
// the file may have torn.
func (ix *Index) Close() error {
	var firstErr error
	if ix.wal != nil && !ix.readOnly && ix.failErr == nil {
		if err := ix.checkpoint(); err != nil {
			firstErr = err
		}
	}
	if ix.wal != nil {
		if err := ix.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := ix.mgr.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
