package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"

	"tsq"
	"tsq/internal/datagen"
)

const (
	seriesLen = 128  // points per series, as in the paper's Fig. 5
	pageSize  = 4096 // the program's default page size
	rounds    = 10   // equal timed rounds; ops_per_s is the median one's rate
	// oracleEvery: every such timed op is answered again by sequential
	// scan after the clocks stop and the two answers compared.
	oracleEvery = 50
	// corpusSeed generates the database content and picks the query
	// points of the range operations, the same for every -seed: R*-trees
	// built from different random walks differ in shape enough to move
	// pages_per_op by 3 % from seed to seed, which is more than its bound.
	// -seed drives what the client does: the order of the query points,
	// the held-out queries and the inserted series.
	corpusSeed = 1999
)

// opKind is the facade call an operation makes.
type opKind uint8

const (
	opRange  opKind = iota // RangeByID, MT-index
	opNN                   // NearestNeighbors, MT-index
	opInsert               // Insert
)

// op is one operation of a workload. arg is the stored series id for
// opRange, and the index into inputs.extra for opNN and opInsert.
type op struct {
	kind opKind
	arg  int
}

// workload is one row of the benchmark: a database configuration and an
// operation mix, sized so that the timed section takes about -seconds
// at the commit that defined it. The sizes are frozen here; -seconds
// scales the operation count and sets no deadline, so two runs with the
// same arguments do the same work.
type workload struct {
	name string
	why  string
	// n is the number of series the database is built from.
	n int
	// opsPerSecond is the frozen op rate of this workload: what the
	// 2-vCPU sandbox did at the defining commit in its slower hours (it is
	// up to a third faster in its calm ones). The timed section has
	// opsPerSecond*seconds operations, rounded to whole blocks per round.
	opsPerSecond float64
	// block is the repeating op mix; every round runs whole blocks.
	block []opKind
	// thr is the range threshold (a minimum cross-correlation).
	thr float64
	// mvLo..mvHi are the moving-average windows of the transformation set.
	mvLo, mvHi int
	// k is the neighbor count of opNN.
	k int
	// onDisk workloads live in a page file under the temp dir.
	onDisk bool
	// reopen closes the freshly built file and reopens it with OpenFile,
	// which attaches the WAL and configures no buffer pool.
	reopen bool
	opts   tsq.Options
}

// workloads is the benchmark. The names and reasons are mirrored in
// BENCHMARK.json; TestManifestMatches keeps the two in step. The
// database sizes are ISSUE 12's; the operation counts are what fits the
// driver's time budget (see README.md, "Sizes").
var workloads = []workload{
	{
		name: "range-mem",
		why:  "in-memory range query with a tight threshold and no pool: R*-tree node load/decode and page copies dominate; bypasses heapfile, files, checksums, WAL and shard merge",
		n:    20000, opsPerSecond: 200,
		block: []opKind{opRange},
		thr:   0.99, mvLo: 10, mvHi: 25,
	},
	{
		name: "range-disk",
		why:  "file-backed range query, paper threshold, 42 MB file behind a 1 MiB pool (larger than the cache): heap batch fetch, checksummed reads and distance kernels dominate",
		n:    10000, opsPerSecond: 60,
		block: []opKind{opRange},
		thr:   0.96, mvLo: 10, mvHi: 25,
		onDisk: true,
		opts:   tsq.Options{BufferPages: 256},
	},
	{
		name: "nn-shards2",
		why:  "10-NN over two in-memory shards whose pools hold the whole tree (fits the cache): featurization, transform kernels, parallel shard probes and the merge dominate",
		n:    6000, opsPerSecond: 55,
		block: []opKind{opNN},
		mvLo:  10, mvHi: 11, k: 10,
		opts: tsq.Options{Shards: 2, BufferPages: 1024},
	},
	{
		name: "ingest-mixed",
		why:  "8 inserts to 2 range queries on a reopened file, fsync per write: WAL append and checkpoints, staged pages, R*-tree insert/split and heap append beside reads",
		n:    10000, opsPerSecond: 500,
		block: []opKind{opInsert, opInsert, opInsert, opInsert, opRange, opInsert, opInsert, opInsert, opInsert, opRange},
		thr:   0.99, mvLo: 10, mvHi: 25,
		onDisk: true, reopen: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// quick shrinks w to smoke-test scale: 1000 series.
func (w workload) quick() workload {
	w.n = 1000
	return w
}

// roundOps returns the number of operations in one timed round for a
// run of the given length: whole blocks, at least one.
func (w workload) roundOps(seconds float64) int {
	blocks := int(w.opsPerSecond * seconds / float64(rounds*len(w.block)))
	if blocks < 1 {
		blocks = 1
	}
	return blocks * len(w.block)
}

// oracleOffset is the position of the first query in the repeating
// block. The oracle re-answers timed op i when i%oracleEvery equals it:
// the block length divides oracleEvery, so that op is never an insert.
func (w workload) oracleOffset() int {
	first := 0
	for w.block[first] == opInsert {
		first++
	}
	return first
}

func (w workload) transforms() []tsq.Transform {
	return tsq.MovingAverages(seriesLen, w.mvLo, w.mvHi)
}

func (w workload) path(dir string) string { return filepath.Join(dir, w.name+".tsq") }

// inputs is everything a run feeds the program, generated from the seed
// before any clock starts.
type inputs struct {
	// base is the database content.
	base []tsq.Series
	// extra are held-out series: the NN queries and the inserted series,
	// each used once.
	extra []tsq.Series
	// warm and timed are the operation lists: the warm-up pass (a tenth
	// of the timed list, same mix) and the timed section, rounds*roundOps
	// operations long.
	warm, timed []op
	// digest is a hash of both op lists and of every generated series:
	// two runs with equal digests did the same work.
	digest string
}

// generate derives the inputs of w from seed. The query points of the
// range operations are the same stored series for every seed, the head of
// one fixed shuffle of the ids, and the seed deals them in its own order:
// what a range query costs differs tenfold from one query point to the
// next, and a sample of a tenth of them drawn afresh per seed moved
// pages_per_op by up to 4 % between seeds. The warm-up pass takes its
// points further down the same shuffle. The held-out series (the NN
// queries and the inserted series) are generated from the seed.
func generate(w workload, seed int64, seconds float64) inputs {
	var in inputs
	in.base = datagen.RandomWalks(corpusSeed, w.n, seriesLen)
	points := rand.New(rand.NewSource(corpusSeed)).Perm(w.n)
	rng := rand.New(rand.NewSource(seed))
	perRound := w.roundOps(seconds)
	nTimed := rounds * perRound
	nWarm := perRound // a tenth of the timed list
	nextPoint := 0
	makeOps := func(count int) []op {
		ops := make([]op, count)
		var ranges []*op
		for i := range ops {
			ops[i].kind = w.block[i%len(w.block)]
			if ops[i].kind == opRange {
				ranges = append(ranges, &ops[i])
			} else {
				ops[i].arg = len(in.extra)
				in.extra = append(in.extra, datagen.RandomWalk(rng, seriesLen))
			}
		}
		for i, j := range rng.Perm(len(ranges)) {
			ranges[i].arg = points[(nextPoint+j)%w.n]
		}
		nextPoint += len(ranges)
		return ops
	}
	in.timed = makeOps(nTimed)
	in.warm = makeOps(nWarm)

	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:]) // hash.Hash.Write never fails
	}
	for _, ops := range [][]op{in.warm, in.timed} {
		for _, o := range ops {
			put(uint64(o.kind)<<56 | uint64(o.arg))
		}
	}
	for _, ss := range [][]tsq.Series{in.base, in.extra} {
		for _, s := range ss {
			for _, v := range s {
				put(math.Float64bits(v))
			}
		}
	}
	in.digest = hex.EncodeToString(h.Sum(nil)[:8])
	return in
}
