package rtree

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tsq/internal/geom"
	"tsq/internal/storage"
)

// flakyBackend wraps a MemBackend and fails every operation once the
// budget is exhausted.
type flakyBackend struct {
	inner  storage.Backend
	budget int
}

var errInjected = errors.New("injected I/O failure")

func (f *flakyBackend) step() error {
	if f.budget <= 0 {
		return errInjected
	}
	f.budget--
	return nil
}

func (f *flakyBackend) ReadPage(id storage.PageID, buf []byte) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.ReadPage(id, buf)
}

func (f *flakyBackend) WritePage(id storage.PageID, buf []byte) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.WritePage(id, buf)
}

func (f *flakyBackend) Grow(id storage.PageID) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.Grow(id)
}

func (f *flakyBackend) Close() error { return f.inner.Close() }

// TestOperationsSurfaceIOErrors drives the tree until the backend starts
// failing at many different points; every operation must return an error
// (never panic), and with an exhausted budget reads must fail loudly.
func TestOperationsSurfaceIOErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, budget := range []int{3, 10, 30, 100, 300, 1000} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic with budget %d: %v", budget, r)
				}
			}()
			fb := &flakyBackend{inner: storage.NewMemBackend(512), budget: budget}
			mgr := storage.NewManager(storage.Options{PageSize: 512, Backend: fb})
			tr, err := New(mgr, 3)
			if err != nil {
				return // failed during creation: acceptable
			}
			sawError := false
			for i := 0; i < 500; i++ {
				p := geom.Point{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
				if err := tr.InsertPoint(p, int64(i)); err != nil {
					sawError = true
					break
				}
			}
			if !sawError {
				t.Fatalf("budget %d never exhausted by 500 inserts", budget)
			}
			// Subsequent operations keep failing cleanly.
			if _, _, err := tr.Search(geom.NewRect(geom.Point{-1, -1, -1}, geom.Point{1, 1, 1})); err == nil {
				t.Error("search succeeded on a dead backend")
			}
			if _, _, err := tr.SelfJoin(1); err == nil {
				t.Error("join succeeded on a dead backend")
			}
		})
	}
}

// TestReadsBeforeFailureAreCorrect checks that everything inserted before
// the failure point is still readable once the backend recovers (the
// in-memory pages were written through).
func TestReadsBeforeFailureAreCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	fb := &flakyBackend{inner: storage.NewMemBackend(512), budget: 1 << 30}
	mgr := storage.NewManager(storage.Options{PageSize: 512, Backend: fb})
	tr, err := New(mgr, 2)
	if err != nil {
		t.Fatal(err)
	}
	var pts []geom.Point
	for i := 0; i < 300; i++ {
		p := geom.Point{rng.NormFloat64() * 10, rng.NormFloat64() * 10}
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			t.Fatal(err)
		}
		pts = append(pts, p)
	}
	// Kill, then revive the backend: reads must reflect all inserts.
	fb.budget = 0
	if _, _, err := tr.Search(geom.PointRect(pts[0])); err == nil {
		t.Fatal("search succeeded while dead")
	}
	fb.budget = 1 << 30
	all, _, err := tr.Search(geom.NewRect(geom.Point{-1e9, -1e9}, geom.Point{1e9, 1e9}))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 300 {
		t.Fatalf("recovered search found %d of 300 records", len(all))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
