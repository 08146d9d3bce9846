package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	itemsketch "repro"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/stream"
)

// Sampling rates of the traced phase: one read in readEvery and one
// ingest batch in ingestEvery is replayed down the stack.
const (
	readEvery   = 32
	ingestEvery = 16
)

// mergeSeed seeds the benchmark's own reservoir merges.
const mergeSeed = 0x5eed

// replica is the benchmark's copy of one shard's sample, fetched
// through GET /v1/shards/{i}/sketch, with the shard's rows seen.
type replica struct {
	db   *dataset.Database
	q    query.Querier
	seen int64
}

// fetchReplicas copies every shard's current sample through the
// handler, in-process. Each copy counts on one goroutine, so replayed
// layers time CPU work, not parallelism.
func fetchReplicas(h http.Handler) ([]replica, error) {
	reps := make([]replica, numShards)
	for i := range reps {
		rec, err := serve(h, "GET", fmt.Sprintf("/v1/shards/%d/sketch", i), nil)
		if err != nil {
			return nil, err
		}
		seen, err := strconv.ParseInt(rec.Header().Get("X-Shard-Seen"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("shard %d: X-Shard-Seen: %w", i, err)
		}
		sk, err := itemsketch.UnmarshalFrom(rec.Body)
		if err != nil {
			return nil, fmt.Errorf("shard %d sketch: %w", i, err)
		}
		holder, ok := sk.(core.SampleHolder)
		if !ok {
			return nil, fmt.Errorf("shard %d sketch is a %T, not a sample", i, sk)
		}
		db := holder.Sample() // decoded with its column index built
		db.SetMaxWorkers(1)
		reps[i] = replica{db: db, q: query.FromDatabase(db), seen: seen}
	}
	return reps, nil
}

// serve calls h in-process and requires a 200.
func serve(h http.Handler, method, path string, body []byte) (*httptest.ResponseRecorder, error) {
	rec := httptest.NewRecorder()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("in-process %s %s: status %d: %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec, nil
}

// recombine weighs per-shard estimates by rows seen, in shard order,
// exactly as the service combines its fan-out.
func recombine(outs [][]float64, reps []replica) []float64 {
	ests := make([]float64, len(outs[0]))
	var weight float64
	for i, out := range outs {
		if reps[i].seen == 0 {
			continue
		}
		w := float64(reps[i].seen)
		weight += w
		for j, f := range out {
			ests[j] += w * f
		}
	}
	if weight > 0 {
		for j := range ests {
			ests[j] /= weight
		}
	}
	return ests
}

// sameBits reports whether a and b hold bit-identical floats.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkFidelity asks the service for the first pooled estimates over
// HTTP and requires the per-shard answers of the replicated samples,
// recombined, to be bit-identical. It holds only while no rows arrive,
// so live_ingest skips it.
func (b *bench) checkFidelity(ctx context.Context) error {
	if b.w.live {
		return nil
	}
	reps, err := fetchReplicas(b.srv.svc.Handler())
	if err != nil {
		return err
	}
	c := newClient(b.srv.url)
	defer c.close()
	for _, req := range b.in.pool[:min(16, len(b.in.pool))] {
		if req.kind != kindEstimate {
			continue
		}
		if err := c.do(ctx, "POST", req.path, req.body); err != nil {
			return err
		}
		outs := make([][]float64, len(reps))
		for i, r := range reps {
			outs[i] = make([]float64, len(req.sets))
			if err := r.q.EstimateMany(ctx, req.sets, outs[i]); err != nil {
				return err
			}
		}
		if !sameBits(recombine(outs, reps), c.ans.Estimates) {
			return fmt.Errorf("fidelity: recombined shard answers differ from the HTTP answer for %s", req.body)
		}
	}
	return nil
}

// ownedShard is a benchmark-owned copy of one live_ingest shard's
// sketches, fed the same round-robin rows, on which ingest-path
// replays run.
type ownedShard struct {
	res *stream.Reservoir
	mg  *stream.MisraGries
	cs  *countsketch.Sketch
	win *stream.WindowedReservoir
	dmg *stream.DecayedMisraGries
}

func newOwnedShard(w workload, i int) (*ownedShard, error) {
	var o ownedShard
	var err error
	if o.res, err = stream.NewReservoir(numAttrs, w.capacity, uint64(i)+1); err != nil {
		return nil, err
	}
	if o.mg, err = stream.NewMisraGries(64); err != nil {
		return nil, err
	}
	// Every count sketch shares one seed, as mergeable sketches must.
	if o.cs, err = countsketch.New(countsketch.Config{Universe: numAttrs, Seed: mergeSeed}); err != nil {
		return nil, err
	}
	params := itemsketch.Params{K: 2, Eps: 0.05, Delta: delta, Mode: itemsketch.ForAll, Task: itemsketch.Estimator}
	if o.win, err = stream.NewWindowedReservoir(numAttrs, windowRows, windowBuckets, windowCapacity, uint64(i)+100, params); err != nil {
		return nil, err
	}
	if o.dmg, err = stream.NewDecayedMisraGries(numAttrs, 64, 0.8, itemsketch.Params{}); err != nil {
		return nil, err
	}
	return &o, nil
}

// applyStream adds one row to the reservoir, Misra–Gries, window and
// decayed Misra–Gries the way a shard's ingest loop does.
func (o *ownedShard) applyStream(row []int) {
	o.res.AddAttrs(row...)
	for _, a := range row {
		o.mg.Add(a)
	}
	if o.win.AddAttrs(row...) {
		o.dmg.Tick()
	}
	for _, a := range row {
		o.dmg.Add(a)
	}
}

func (o *ownedShard) applyCountSketch(row []int) {
	for _, a := range row {
		o.cs.Add(a)
	}
}

// publish clones the shard state into a query snapshot the way a shard
// publishes after every batch; index wraps the column-index build.
func (o *ownedShard) publish(index func(f func())) {
	frozen := o.res.Clone()
	db := frozen.Database()
	index(db.BuildColumnIndex)
	_ = query.FromDatabase(db)
	o.mg.Clone()
	o.cs.Clone()
	o.win.Clone()
	o.dmg.Clone()
}

// tracer replays sampled requests down the stack and records one span
// per replayed call.
//
// Read replays call the target: the service under test on the
// read-only workloads, where nothing changes its state, and on
// live_ingest a shadow service loaded with the same rows. The shadow
// takes the replayed ingest, so the service under test stays
// checkable, and a replay can reproduce a merge-cache miss on it.
type tracer struct {
	*recorder
	b        *bench
	target   *service.Service
	targetH  http.Handler
	replicas []replica // the target's samples; nil after the target ingests
	mineDB   *dataset.Database

	// live_ingest only.
	owned      []*ownedShard
	shadowDir  string
	csMerged   *countsketch.Sketch
	ingestReqs []int64 // request ids of the replayed ingest batches
	ckpts      int
	ckptBytes  int64

	// gate is held shared around every request of the traced phase and
	// exclusively by a replay, so replays time their calls alone.
	gate                     sync.RWMutex
	readSeq, ingestSeq       atomic.Int64
	kernelCalls, kernelBytes atomic.Int64
	publishAlloc             float64
}

func newTracer(ctx context.Context, b *bench, dir string) (*tracer, error) {
	t := &tracer{recorder: newRecorder(), b: b, target: b.srv.svc}
	if b.w.live {
		if err := t.startShadow(ctx, dir); err != nil {
			t.close()
			return nil, err
		}
	}
	t.targetH = t.target.Handler()
	reps, err := t.samples()
	if err != nil {
		t.close()
		return nil, err
	}
	if t.mineDB, err = unionSample(reps, b.w.capacity); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// startShadow builds the shadow service and the owned sketches, loads
// both with the rows the service under test was loaded with, and reads
// one batch's publish allocation while nothing else runs.
func (t *tracer) startShadow(ctx context.Context, dir string) error {
	for i := 0; i < numShards; i++ {
		o, err := newOwnedShard(t.b.w, i)
		if err != nil {
			return err
		}
		t.owned = append(t.owned, o)
	}
	t.shadowDir = filepath.Join(dir, "shadow")
	if err := os.MkdirAll(t.shadowDir, 0o755); err != nil {
		return err
	}
	shadow, err := service.New(t.b.w.config(t.b.seed+1, t.shadowDir))
	if err != nil {
		return err
	}
	t.target = shadow
	var row []int
	n := 0
	for _, batch := range t.b.in.load {
		rows := make([][]int, len(batch))
		for j, m := range batch {
			row = maskAttrs(row[:0], m)
			o := t.owned[n%numShards]
			o.applyStream(row)
			o.applyCountSketch(row)
			rows[j] = maskAttrs(nil, m)
			n++
		}
		if _, err := shadow.Ingest(ctx, rows); err != nil {
			return fmt.Errorf("shadow ingest: %w", err)
		}
	}
	var allocs []float64
	for k := 0; k < 5; k++ {
		before := readRuntime()
		for _, o := range t.owned {
			o.publish(func(f func()) { f() })
		}
		allocs = append(allocs, readRuntime().allocBytes-before.allocBytes)
	}
	t.publishAlloc = median(allocs)
	return nil
}

func (t *tracer) close() {
	if t.target != t.b.srv.svc {
		_ = t.target.Close() // the shadow's final checkpoints land in the run directory, removed with it
	}
}

// samples returns the target's shard samples, fetching them again
// after the target has ingested.
func (t *tracer) samples() ([]replica, error) {
	if t.replicas == nil {
		reps, err := fetchReplicas(t.targetH)
		if err != nil {
			return nil, err
		}
		t.replicas = reps
	}
	return t.replicas, nil
}

// unionSample merges restored copies of the shard samples and indexes
// the union, as Service.Mine does on a merge-cache miss.
func unionSample(reps []replica, capacity int) (*dataset.Database, error) {
	var merged *stream.Reservoir
	for _, r := range reps {
		res, err := stream.RestoreReservoir(r.db.Clone(), capacity, r.seen, mergeSeed)
		if err != nil {
			return nil, err
		}
		if merged == nil {
			merged = res
			continue
		}
		if merged, err = stream.Merge(merged, res, mergeSeed); err != nil {
			return nil, err
		}
	}
	db := merged.Database()
	db.BuildColumnIndex()
	return db, nil
}

// enter and leave bracket one request of a phase; a nil tracer (the
// untraced phase) does nothing.
func (t *tracer) enter() {
	if t != nil {
		t.gate.RLock()
	}
}

func (t *tracer) leave() {
	if t != nil {
		t.gate.RUnlock()
	}
}

func (t *tracer) sampleRead() bool   { return t.readSeq.Add(1)%readEvery == 0 }
func (t *tracer) sampleIngest() bool { return t.ingestSeq.Add(1)%ingestEvery == 0 }

// ingestTarget adds rows to the shadow outside any span, so the
// target's next merged read misses its cache.
func (t *tracer) ingestTarget(ctx context.Context, rows [][]int) error {
	t.replicas = nil
	_, err := t.target.Ingest(ctx, rows)
	return err
}

// cached reports whether kind reads through a cross-shard merge cache.
func cached(kind reqKind) bool {
	return kind == kindHeavy || kind == kindWindowHeavy || kind == kindMine
}

// replayRead records the sampled read's round trip (start, lat) and
// replays it layer by layer on the target: the handler in-process, the
// Service method it calls, then that method's children through their
// public APIs. missed says whether the round trip rebuilt a merge; the
// replay reproduces that on the shadow, and otherwise calls the method
// once beforehand so both timed calls hit the cache. ans is the answer
// the round trip returned. Replays hold the gate, so no other request
// runs while they are timed.
func (t *tracer) replayRead(ctx context.Context, req *request, start time.Time, lat time.Duration, missed bool, ans *answer) error {
	t.gate.Lock()
	defer t.gate.Unlock()
	svc := t.target
	missed = missed && t.owned != nil && cached(req.kind) // only the shadow can be made to miss
	miss := func() error { return t.ingestTarget(ctx, [][]int{t.b.in.plant}) }
	reps, err := t.samples()
	if err != nil {
		return err
	}
	// One untimed call first: the round trip ran in a warm loop, so the
	// replay should not pay for the cold caches of the sample fetch.
	if _, err := serve(t.targetH, "POST", req.path, req.body); err != nil {
		return err
	}
	if missed {
		if err := miss(); err != nil {
			return err
		}
	}
	id := t.request()
	root := t.add(id, 0, "request.read", start, start.Add(lat), 0)
	h := t.timed(id, root, "service.handler", func() { _, err = serve(t.targetH, "POST", req.path, req.body) })
	if err == nil && missed {
		err = miss()
	}
	if err != nil {
		return err
	}
	switch req.kind {
	case kindEstimate:
		e := t.timed(id, h, "service.estimate", func() { _, _, err = svc.Estimate(ctx, req.sets) })
		if err != nil {
			return err
		}
		return t.replayShards(ctx, id, e, req, reps, ans)
	case kindWindowEstimate:
		e := t.timed(id, h, "service.estimate_window", func() { _, _, err = svc.EstimateWindow(ctx, req.sets) })
		for _, o := range t.owned {
			t.timed(id, e, "stream.window_estimate", func() {
				for _, s := range req.sets {
					o.win.Estimate(s)
				}
			})
		}
		return err
	case kindHeavy:
		before := svc.MergeBuilds()
		e := t.timed(id, h, "service.heavy_hitters", func() { _, _, _, err = svc.HeavyHitters(ctx, heavyPhi) })
		if err != nil || t.owned == nil {
			return err // without a count sketch: nothing below the merge cache to replay
		}
		if built := svc.MergeBuilds().CountSketch > before.CountSketch; built || t.csMerged == nil {
			merge := func() {
				m := t.owned[0].cs.Clone()
				for _, o := range t.owned[1:] {
					if merr := m.Merge(o.cs); merr != nil && err == nil {
						err = merr
					}
				}
				t.csMerged = m
			}
			if built {
				t.timed(id, e, "countsketch.merge", merge)
			} else {
				merge()
			}
		}
		t.timed(id, e, "countsketch.heavy_hitters", func() { t.csMerged.HeavyHitters(heavyPhi) })
		return err
	case kindWindowHeavy:
		before := svc.MergeBuilds()
		e := t.timed(id, h, "service.heavy_hitters_window", func() { _, _, _, err = svc.HeavyHittersWindow(ctx, heavyPhi) })
		if err == nil && svc.MergeBuilds().Decayed > before.Decayed {
			t.timed(id, e, "stream.merge", func() {
				m := t.owned[0].dmg
				for _, o := range t.owned[1:] {
					var merr error
					if m, merr = stream.MergeDecayed(m, o.dmg); merr != nil && err == nil {
						err = merr
					}
				}
				m.HeavyHitters(heavyPhi)
			})
		}
		return err
	case kindMine:
		before := svc.MergeBuilds()
		e := t.timed(id, h, "service.mine", func() { _, _, err = svc.Mine(ctx, mineMinSup, mineMaxK) })
		if err != nil {
			return err
		}
		if svc.MergeBuilds().Mine > before.Mine {
			if err := t.replayMineMerge(id, e, reps); err != nil {
				return err
			}
		}
		t.timed(id, e, "mining.apriori", func() {
			_, err = itemsketch.AprioriContext(ctx, itemsketch.QueryDatabase(t.mineDB), mineMinSup, mineMaxK)
		})
		return err
	}
	return nil
}

// replayMineMerge times the union-sample merge and index build that a
// Service.Mine merge-cache miss performs, on restored replica samples.
func (t *tracer) replayMineMerge(id, parent int64, reps []replica) error {
	restored := make([]*stream.Reservoir, len(reps))
	for i, r := range reps {
		var err error
		if restored[i], err = stream.RestoreReservoir(r.db.Clone(), t.b.w.capacity, r.seen, mergeSeed); err != nil {
			return err
		}
	}
	var merged *stream.Reservoir
	var err error
	t.timed(id, parent, "stream.merge", func() {
		merged = restored[0]
		for _, r := range restored[1:] {
			if merged, err = stream.Merge(merged, r, mergeSeed); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	t.timed(id, parent, "dataset.index_build", func() {
		db := merged.Database()
		db.BuildColumnIndex()
		t.mineDB = db
	})
	return nil
}

// replayShards replays an estimate's fan-out on the replicas: the
// per-shard EstimateMany calls run concurrently like the service's
// fan-out; then, serially, each shard's CountManyInto and the kernels
// it runs. On the read-only workloads the replicas are the samples
// that answered the round trip, so the recombined per-shard answers
// must equal its answer bit for bit.
func (t *tracer) replayShards(ctx context.Context, id, parent int64, req *request, reps []replica, ans *answer) error {
	outs := make([][]float64, len(reps))
	spans := make([][2]time.Time, len(reps))
	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	for i, r := range reps {
		outs[i] = make([]float64, len(req.sets))
		wg.Add(1)
		go func(i int, r replica) {
			defer wg.Done()
			spans[i][0] = time.Now()
			errs[i] = r.q.EstimateMany(ctx, req.sets, outs[i])
			spans[i][1] = time.Now()
		}(i, r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if !t.b.w.live && !sameBits(recombine(outs, reps), ans.Estimates) {
		return fmt.Errorf("fidelity: recombined shard answers differ from the HTTP answer for %s", req.body)
	}
	counts := make([]int, len(req.sets))
	var cols [8][]uint64
	for i, r := range reps {
		// The fan-out gives each shard's span its interval; running the
		// same call again alone gives its CPU.
		cpu := t.cpuOf(func() { _ = r.q.EstimateMany(ctx, req.sets, outs[i]) })
		q := t.add(id, parent, "query.estimate_many", spans[i][0], spans[i][1], cpu)
		c := t.timed(id, q, "dataset.count", func() { r.db.CountManyInto(counts, req.sets) })
		var calls, nbytes int64
		var mismatch bool
		t.timed(id, c, "bitvec.kernel", func() {
			for j, s := range req.sets {
				k := cols[:s.Len()]
				for x, a := range s.Attrs() {
					k[x] = r.db.AttrColumn(a).Words()
				}
				if bitvec.AndCountAll(k) != counts[j] {
					mismatch = true
				}
				calls++
				nbytes += int64(len(k) * len(k[0]) * 8)
			}
		})
		if mismatch {
			return fmt.Errorf("kernel replay: counts differ from CountManyInto on shard %d", i)
		}
		t.kernelCalls.Add(calls)
		t.kernelBytes.Add(nbytes)
	}
	return nil
}

// replayIngest records the sampled batch's round trip and replays it
// on the shadow service and the owned sketches: the handler in-process,
// Service.Ingest, the per-row stream and count-sketch adds, and one
// batch's 8 snapshot publishes.
func (t *tracer) replayIngest(ctx context.Context, batch int, start time.Time, lat time.Duration) error {
	t.gate.Lock()
	defer t.gate.Unlock()
	masks := t.b.in.liveRows[batch]
	rows := make([][]int, len(masks))
	for i, m := range masks {
		rows[i] = maskAttrs(nil, m)
	}
	t.replicas = nil
	id := t.request()
	t.ingestReqs = append(t.ingestReqs, id)
	root := t.add(id, 0, "request.ingest", start, start.Add(lat), 0)
	var err error
	h := t.timed(id, root, "service.handler", func() { _, err = serve(t.targetH, "POST", "/v1/ingest", t.b.in.liveBodies[batch]) })
	if err != nil {
		return err
	}
	ing := t.timed(id, h, "service.ingest", func() { _, err = t.target.Ingest(ctx, rows) })
	if err != nil {
		return err
	}
	t.timed(id, ing, "stream.apply", func() {
		for i, row := range rows {
			t.owned[i%numShards].applyStream(row)
		}
	})
	t.timed(id, ing, "countsketch.add", func() {
		for i, row := range rows {
			t.owned[i%numShards].applyCountSketch(row)
		}
	})
	for _, o := range t.owned {
		var index [2]time.Time
		var indexCPU int64
		p := t.timed(id, ing, "service.publish", func() {
			o.publish(func(build func()) {
				index[0] = time.Now()
				indexCPU = t.cpuOf(build)
				index[1] = time.Now()
			})
		})
		t.add(id, p, "dataset.index_build", index[0], index[1], indexCPU)
	}
	return nil
}

// replayCheckpoints checkpoints every shadow shard once, after the
// traced phase so the disk writes stall no timed request, charging
// each to a replayed ingest batch as a root span of its own. A shard
// checkpoints once per checkpointEvery of its rows, so an ingest batch
// owes liveBatchRows/checkpointEvery of one checkpoint.
func (t *tracer) replayCheckpoints() error {
	if len(t.ingestReqs) == 0 {
		return nil
	}
	for k := 0; k < numShards; k++ {
		var err error
		t.timed(t.ingestReqs[k%len(t.ingestReqs)], 0, "service.checkpoint", func() { err = t.target.Shard(k).Checkpoint() })
		if err != nil {
			return err
		}
		fi, err := os.Stat(filepath.Join(t.shadowDir, fmt.Sprintf("shard-%d.ckpt", k)))
		if err != nil {
			return err
		}
		t.ckpts++
		t.ckptBytes += fi.Size()
	}
	return nil
}
