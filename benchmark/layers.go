package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tsq"
	"tsq/internal/core"
	"tsq/internal/dft"
	"tsq/internal/heapfile"
	"tsq/internal/rtree"
	"tsq/internal/series"
	"tsq/internal/storage"
	"tsq/internal/wal"
)

// Direct drivers: each times calls into one layer's public functions,
// outside the facade, on a side index built from the head of the same
// generated series with the workload's storage configuration. They give
// the unit costs (per node, per record, per comparison) that the
// counters of the timed section multiply.

const (
	sideSeries   = 4000 // series in the side index
	driverSeries = 2000 // series the per-series drivers process
	fetchBatch   = 64   // ids per heapfile.FetchBatch call
	fetchBatches = 60
	appendRecs   = 500
	walRecords   = 200
	walImages    = 16 // page images per WAL record, about one insert's worth
	kernelPairs  = 200000
)

// mallocs reads the process's cumulative malloc count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// sideIndex builds the side index of w: shard 0 of an in-memory build,
// or a paged index on the program's file stack (file, page checksums,
// staging overlay) for workloads that live on disk.
func sideIndex(w workload, dir string, ss []tsq.Series) (*core.Index, func() error, error) {
	ds, err := core.NewDataset(ss, nil)
	if err != nil {
		return nil, nil, err
	}
	opts := core.IndexOptions{K: 2, PageSize: pageSize, BufferPages: w.opts.BufferPages, UseSymmetry: true}
	if !w.onDisk {
		sh, err := core.BuildSharded(ds, w.opts.Shards, opts)
		if err != nil {
			return nil, nil, err
		}
		return sh.Shard(0), sh.Close, nil
	}
	fb, err := storage.NewFileBackend(filepath.Join(dir, "side.pages"), pageSize)
	if err != nil {
		return nil, nil, err
	}
	cb := storage.NewChecksumBackend(fb, pageSize)
	mgr := storage.NewManager(storage.Options{
		PageSize:    cb.LogicalPageSize(),
		BufferPages: w.opts.BufferPages,
		Backend:     storage.NewStagedBackend(cb),
	})
	opts.PageSize, opts.Paged, opts.Manager = cb.LogicalPageSize(), true, mgr
	ix, err := core.BuildIndex(ds, opts)
	if err != nil {
		_ = mgr.Close()
		return nil, nil, err
	}
	return ix, ix.Close, nil
}

// runLayers runs the direct drivers and returns their metrics by name.
// Layers the workload bypasses (no heap file in memory, no WAL without
// writes) report 0.
func (r *runner) runLayers() (map[string]float64, error) {
	out := make(map[string]float64)
	rng := rand.New(rand.NewSource(1)) // access order only; the data comes from -seed
	head := r.in.base[:min(len(r.in.base), driverSeries)]

	// core / dft: featurization, the per-series cost of every build and insert.
	recs := make([]*core.Record, len(head))
	t0 := time.Now()
	for i, s := range head {
		recs[i] = core.NewRecord(int64(i), "", s)
	}
	out["core.features_us_per_series"] = us(time.Since(t0)) / float64(len(head))
	var sink int
	t0 = time.Now()
	for _, rec := range recs {
		sink += len(dft.TransformReal(rec.Norm))
	}
	out["dft.transform_us_per_series"] = us(time.Since(t0)) / float64(len(head))

	// transform / series: the two early-abandoning distance kernels under
	// the paper's threshold.
	eps := series.DistanceForCorrelation(seriesLen, 0.96)
	mv := tsq.MovingAverage(seriesLen, 10)
	t0 = time.Now()
	for i := 0; i < kernelPairs; i++ {
		a, b := recs[i%len(recs)], recs[(i*7+1)%len(recs)]
		if _, abandoned := mv.DistancePolarAbandon(a.Mags, a.Phases, b.Mags, b.Phases, eps); abandoned {
			sink++
		}
	}
	out["transform.dist_ns_per_cmp"] = float64(time.Since(t0)) / kernelPairs
	t0 = time.Now()
	for i := 0; i < kernelPairs; i++ {
		a, b := recs[i%len(recs)], recs[(i*7+1)%len(recs)]
		if _, abandoned := series.DistEuclideanAbandon(a.Norm, b.Norm, eps); abandoned {
			sink++
		}
	}
	out["series.dist_ns_per_cmp"] = float64(time.Since(t0)) / kernelPairs
	_ = sink

	// rtree: insertion into a fresh in-memory tree.
	tree, err := rtree.New(storage.NewManager(storage.Options{PageSize: pageSize}), 6)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	for i, rec := range recs {
		if err := tree.InsertPoint(rec.Feature(2), int64(i)); err != nil {
			return nil, err
		}
	}
	out["rtree.insert_us_per_point"] = us(time.Since(t0)) / float64(len(recs))

	// The side index, on the workload's storage stack.
	ix, closeSide, err := sideIndex(r.w, r.dir, r.in.base[:min(len(r.in.base), sideSeries)])
	if err != nil {
		return nil, fmt.Errorf("side index: %w", err)
	}
	defer func() { _ = closeSide() }() // read-mostly scratch index; nothing to lose

	// rtree: load and decode every node.
	var nodes []storage.PageID
	if err := ix.Tree().Visit(func(n *rtree.Node, _ int) error {
		nodes = append(nodes, n.ID)
		return nil
	}); err != nil {
		return nil, err
	}
	const loadPasses = 20
	m0 := mallocs()
	t0 = time.Now()
	for p := 0; p < loadPasses; p++ {
		for _, id := range nodes {
			if _, err := ix.Tree().Load(id); err != nil {
				return nil, err
			}
		}
	}
	loads := float64(loadPasses * len(nodes))
	out["rtree.load_us_per_node"] = us(time.Since(t0)) / loads
	out["rtree.load_allocs_per_node"] = float64(mallocs()-m0) / loads

	// storage: raw page reads in random order through the whole stack.
	buf := make([]byte, ix.Manager().PageSize())
	reads := loadPasses * len(nodes)
	t0 = time.Now()
	for i := 0; i < reads; i++ {
		if err := ix.Manager().Read(nodes[rng.Intn(len(nodes))], buf); err != nil {
			return nil, err
		}
	}
	out["storage.read_us_per_page"] = us(time.Since(t0)) / float64(reads)

	// heapfile: batched fetch of random records, then appends.
	if heap := ix.Heap(); heap != nil {
		ids := make([]int64, fetchBatch)
		m0 = mallocs()
		t0 = time.Now()
		for b := 0; b < fetchBatches; b++ {
			for i := range ids {
				ids[i] = int64(rng.Intn(heap.Len()))
			}
			if _, err := heap.FetchBatch(nil, ids); err != nil {
				return nil, err
			}
		}
		fetched := float64(fetchBatches * fetchBatch)
		out["heapfile.fetch_us_per_rec"] = us(time.Since(t0)) / fetched
		out["heapfile.fetch_allocs_per_rec"] = float64(mallocs()-m0) / fetched
		t0 = time.Now()
		for i := 0; i < appendRecs; i++ {
			rec := recs[i%len(recs)]
			if _, err := heap.Append(&heapfile.Rec{Mean: rec.Mean, Std: rec.Std, Raw: rec.Raw, Mags: rec.Mags, Phases: rec.Phases}); err != nil {
				return nil, err
			}
		}
		out["heapfile.append_us_per_rec"] = us(time.Since(t0)) / appendRecs
	}

	// wal: appends of insert-sized records, each made durable before the
	// next, as the facade's Insert does.
	if r.w.reopen {
		path := filepath.Join(r.dir, "side.wal")
		log, _, err := wal.OpenFile(path)
		if err != nil {
			return nil, err
		}
		rec := wal.Record{Op: wal.OpInsert, Series: head[0]}
		for i := 0; i < walImages; i++ {
			rec.Pages = append(rec.Pages, wal.PageImage{ID: storage.PageID(i + 1), Data: buf})
		}
		t0 = time.Now()
		for i := 0; i < walRecords; i++ {
			if err := log.Append(&rec); err != nil {
				_ = log.Close()
				return nil, err
			}
		}
		out["wal.append_us_per_rec"] = us(time.Since(t0)) / walRecords
		if err := log.Close(); err != nil {
			return nil, err
		}
		if err := os.Remove(path); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
