package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"tsq"
	"tsq/internal/storage"
	"tsq/internal/wal"
)

// answer is what a query returned, in a shape both query kinds share.
type answer struct {
	id   int64
	ti   int
	dist float64
}

// opResult is the outcome of one facade call, kept as the program
// returned it so that the timed loop adds no work of its own.
type opResult struct {
	matches []tsq.Match   // opRange
	nn      []tsq.NNMatch // opNN
	stats   tsq.Stats
	err     error
}

func (res opResult) count() int { return len(res.matches) + len(res.nn) }

// answers converts either answer shape to the common one.
func (res opResult) answers() []answer {
	out := make([]answer, 0, res.count())
	for _, m := range res.matches {
		out = append(out, answer{m.RecordID, m.TransformIdx, m.Distance})
	}
	for _, m := range res.nn {
		out = append(out, answer{m.RecordID, m.TransformIdx, m.Distance})
	}
	return out
}

// acked is one acknowledged insert: the id returned and which held-out
// series it carried.
type acked struct {
	id    int64
	extra int
}

// runner holds one database and the bookkeeping of what was done to it.
type runner struct {
	w    workload
	in   inputs
	ts   []tsq.Transform
	thr  tsq.Threshold
	dir  string
	db   *tsq.DB
	acks []acked
}

// open builds the workload's database: in memory, or in a page file that
// is (for reopen workloads) closed and opened again so the handle is the
// one an application gets from OpenFile.
func (r *runner) open() error {
	if !r.w.onDisk {
		db, err := tsq.Open(r.in.base, nil, r.w.opts)
		r.db = db
		return err
	}
	path := r.w.path(r.dir)
	db, err := tsq.CreateFile(path, r.in.base, nil, r.w.opts)
	if err != nil {
		return err
	}
	if r.w.reopen {
		if err := db.Close(); err != nil {
			return err
		}
		if db, err = tsq.OpenFile(path); err != nil {
			return err
		}
	}
	r.db = db
	return nil
}

// exec makes the facade call of o. ctx is nil in the timed section (the
// program's untraced path) and carries a trace in the traced pass.
func (r *runner) exec(ctx context.Context, o op, alg tsq.Algorithm) opResult {
	var res opResult
	switch o.kind {
	case opRange:
		res.matches, res.stats, res.err = r.db.RangeByIDCtx(ctx, int64(o.arg), r.ts, r.thr, tsq.QueryOptions{Algorithm: alg})
	case opNN:
		res.nn, res.stats, res.err = r.db.NearestNeighborsCtx(ctx, r.in.extra[o.arg], r.ts, r.w.k, tsq.QueryOptions{Algorithm: alg})
	case opInsert:
		var id int64
		if id, res.err = r.db.Insert("", r.in.extra[o.arg]); res.err == nil {
			r.acks = append(r.acks, acked{id, o.arg})
		}
	}
	return res
}

// setup builds the database and runs the warm-up pass, returning how
// long the build alone and the whole set-up took.
func (r *runner) setup() (build, total time.Duration, err error) {
	t0 := time.Now()
	if err := r.open(); err != nil {
		return 0, 0, fmt.Errorf("set-up: %w", err)
	}
	build = time.Since(t0)
	for i, o := range r.in.warm {
		if res := r.exec(nil, o, tsq.MTIndex); res.err != nil {
			return 0, 0, fmt.Errorf("warm-up op %d: %w", i, res.err)
		}
	}
	return build, time.Since(t0), nil
}

// counters is a snapshot of every counter the program already keeps.
type counters struct {
	mem        runtime.MemStats
	disk       storage.Stats
	wal        wal.Stats
	fsyncNanos int64
}

func (r *runner) snapshot() counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	c.disk = r.db.DiskStats()
	c.wal = wal.GlobalStats()
	c.fsyncNanos = wal.GlobalFsyncNanos()
	return c
}

// sample is a timed operation kept for the oracle: its answer, and how
// many series the database held when it ran (ids are handed out in
// order and never reused, so that count identifies the state).
type sample struct {
	op    op
	res   opResult
	dbLen int
}

// timed is everything the timed section produced.
type timed struct {
	latMs      []float64 // per op, in op-list order
	roundRate  []float64 // ops/s of each round
	wall       time.Duration
	before     counters
	after      counters
	heapMB     float64
	stats      tsq.Stats // summed over query ops
	matches    int
	failed     int
	samples    []sample
	insertMs   []float64
	queryMs    []float64
	insertWall float64 // ms spent in insert ops
}

// runTimed runs the timed section: rounds of equal size and identical op
// mix, one closed-loop client, tracing off.
func (r *runner) runTimed() timed {
	ops := r.in.timed
	perRound := len(ops) / rounds
	t := timed{
		latMs:     make([]float64, len(ops)),
		roundRate: make([]float64, rounds),
		samples:   make([]sample, 0, len(ops)/oracleEvery+1),
	}
	dbLen := r.db.Len()
	oracleAt := r.w.oracleOffset()
	runtime.GC()
	t.before = r.snapshot()
	start := time.Now()
	for rd := 0; rd < rounds; rd++ {
		r0 := time.Now()
		for i := rd * perRound; i < (rd+1)*perRound; i++ {
			o := ops[i]
			t0 := time.Now()
			res := r.exec(nil, o, tsq.MTIndex)
			t.latMs[i] = float64(time.Since(t0)) / 1e6
			if res.err != nil {
				t.failed++
				continue
			}
			if o.kind == opInsert {
				dbLen++
				continue
			}
			t.stats.Add(res.stats)
			t.matches += res.count()
			if i%oracleEvery == oracleAt {
				t.samples = append(t.samples, sample{o, res, dbLen})
			}
		}
		t.roundRate[rd] = float64(perRound) / time.Since(r0).Seconds()
	}
	t.wall = time.Since(start)
	t.after = r.snapshot()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.heapMB = float64(m.HeapAlloc) / (1 << 20)
	for i, o := range ops {
		if o.kind == opInsert {
			t.insertMs = append(t.insertMs, t.latMs[i])
			t.insertWall += t.latMs[i]
		} else {
			t.queryMs = append(t.queryMs, t.latMs[i])
		}
	}
	return t
}

// checkOracle answers every sampled operation again by sequential scan
// and counts the ones whose index answer differs: the paper's contract
// is no false dismissals (and the verification step allows no false
// hits). Inserts after the sampled op only add higher ids, which the
// comparison leaves out.
func (r *runner) checkOracle(samples []sample) (failed int, err error) {
	for _, s := range samples {
		res := r.exec(nil, s.op, tsq.SeqScan)
		if res.err != nil {
			return failed, fmt.Errorf("oracle: %w", res.err)
		}
		var want []answer
		for _, a := range res.answers() {
			if a.id < int64(s.dbLen) {
				want = append(want, a)
			}
		}
		if !sameAnswers(s.op.kind, s.res.answers(), want) {
			failed++
		}
	}
	return failed, nil
}

// sameAnswers compares two answers: ids, transformation indexes, and
// distances to 1e-9. Range answers are compared as sets, NN answers in
// rank order.
func sameAnswers(kind opKind, got, want []answer) bool {
	if len(got) != len(want) {
		return false
	}
	if kind == opRange {
		sortAnswers(got)
		sortAnswers(want)
	}
	for i := range got {
		if got[i].id != want[i].id || got[i].ti != want[i].ti || math.Abs(got[i].dist-want[i].dist) > 1e-9 {
			return false
		}
	}
	return true
}

func sortAnswers(as []answer) {
	sort.Slice(as, func(i, j int) bool {
		if as[i].id != as[j].id {
			return as[i].id < as[j].id
		}
		return as[i].ti < as[j].ti
	})
}

// checkDurable closes the database, reopens it from its files alone and
// counts every acknowledged insert that cannot be read back; a wrong
// series count (the built series plus the acknowledged inserts) or a failed
// scrub is one more failure each. It returns how long close plus reopen
// took.
func (r *runner) checkDurable() (failed int, reopen time.Duration, err error) {
	t0 := time.Now()
	if err := r.db.Close(); err != nil {
		return 0, 0, fmt.Errorf("close: %w", err)
	}
	db, err := tsq.OpenFile(r.w.path(r.dir))
	if err != nil {
		return 0, 0, fmt.Errorf("reopen: %w", err)
	}
	reopen = time.Since(t0)
	r.db = db
	if db.Len() != r.w.n+len(r.acks) {
		failed++
	}
	for _, a := range r.acks {
		if !sameSeries(db.Get(a.id), r.in.extra[a.extra]) {
			failed++
		}
	}
	if err := db.Close(); err != nil {
		return failed, reopen, fmt.Errorf("close after reopen: %w", err)
	}
	r.db = nil
	rep, err := tsq.CheckFile(r.w.path(r.dir))
	if err != nil {
		return failed, reopen, fmt.Errorf("scrub: %w", err)
	}
	if !rep.OK() {
		failed++
	}
	return failed, reopen, nil
}

func sameSeries(a, b tsq.Series) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
