package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"

	"repro/internal/combin"
	"repro/internal/countsketch"
	"repro/internal/dataset"
	"repro/internal/service"
)

// Fixed shape of every workload: the service runs 8 shards over a
// d = 64 attribute universe and is loaded with ≈1M rows before the
// timed phase.
const (
	numAttrs      = 64
	numShards     = 8
	loadRows      = 1 << 20
	loadBatchRows = 1024
	liveBatchRows = 256
	// liveRowsPerSec paces the live_ingest writer at about a quarter of
	// what the full-kind ingest path sustains with tmpfs checkpoints.
	liveRowsPerSec = 100_000
	windowRows     = 65536 // per shard
	windowBuckets  = 8
	windowCapacity = 256
	// checkpointEvery is the per-shard auto-checkpoint interval of
	// live_ingest. A shard holds loadRows/numShards = 131,072 rows after
	// the load and gains 12,500 a second, so no checkpoint fires within
	// the first 10 s of paced ingest: one checkpoint round stalls every
	// shard for the disk's fsyncs (0.4–0.7 s on ext4), which would make
	// ingest_ack_p99_ms a measure of the disk. The traced run times
	// Shard.Checkpoint directly instead.
	checkpointEvery = 262144
	// delta is the service's default failure probability; the answer
	// checks use the Lemma 9 ε at this δ.
	delta = 0.05

	plantFreq = 0.3 // share of rows carrying the planted itemset
	heavyPhi  = 0.04
	// mineMinSup sits well clear of every attribute's frequency (the two
	// most popular are 0.40 and 0.21, a planted one ≥ 0.30), so the
	// mined set, and what mining costs, does not depend on the seed.
	mineMinSup = 0.25
	mineMaxK   = 3
	// Zipf skews of the per-attribute inclusion probability and of the
	// attributes drawn into query itemsets.
	attrTopProb = 0.4
	attrSkew    = 0.9
	querySkew   = 1.2
)

// workload is one traffic mix.
type workload struct {
	name     string
	capacity int  // per-shard reservoir rows
	live     bool // paced ingest writer, every streaming kind, checkpoints
	bulk     bool // 256-itemset estimates only
	why      string
}

var workloads = []workload{
	{name: "point_read", capacity: 4096,
		why: "tiny reads over a quiet service: transport, handler JSON and the shard fan-out carry the time; every merge cache hits"},
	{name: "bulk_read", capacity: 32768, bulk: true,
		why: "256-itemset estimates over 262,144 sample rows (the small-epsilon regime): dataset counting and bitvec kernels carry the time"},
	{name: "live_ingest", capacity: 4096, live: true,
		why: "paced 256-row ingest with every streaming kind beside a mixed read loop: routing, shard apply, snapshot publish and merge rebuilds carry the time"},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// config returns the service configuration the workload runs; dir is
// the checkpoint directory (used by live_ingest only), which must exist.
func (w workload) config(seed uint64, dir string) service.Config {
	cfg := service.Config{
		Shards:         numShards,
		NumAttrs:       numAttrs,
		SampleCapacity: w.capacity,
		Seed:           seed,
	}
	if w.live {
		cfg.CountSketch = &countsketch.Config{}
		cfg.Window = &service.WindowConfig{Rows: windowRows, Buckets: windowBuckets, SampleCapacity: windowCapacity}
		cfg.CheckpointDir = dir
		cfg.CheckpointEvery = checkpointEvery
	}
	return cfg
}

// reqKind names the read request kinds of the mixes.
type reqKind int

const (
	kindEstimate reqKind = iota
	kindWindowEstimate
	kindHeavy
	kindWindowHeavy
	kindMine
	numKinds
)

var kindNames = [numKinds]string{"estimate", "window_estimate", "heavy", "window_heavy", "mine"}

// request is one pre-encoded read with what its answer is checked against.
type request struct {
	kind  reqKind
	path  string
	body  []byte
	sets  []dataset.Itemset // estimate kinds
	truth []float64         // exact frequency of each itemset over every generated row
}

// inputs is everything a run sends, generated from the seed before any
// clock starts.
type inputs struct {
	plant      []int      // planted itemset: mined and heavy-hitter answers must name it
	load       [][]uint64 // the loaded rows as attribute masks, in 1024-row batches
	loadBodies [][]byte
	liveBodies [][]byte   // live_ingest only: 256-row ingest bodies
	liveRows   [][]uint64 // the rows of each live body, as attribute masks
	pool       []*request
}

// dropLoad releases the loaded rows once no set-up needs them, so the
// timed phase runs on the heap the service keeps alive and the
// collector paces on it. Kept alive, the benchmark's copy of the
// million loaded rows held bulk_read's collections to one per 160 ms,
// and the share of reads that overlapped one, or a stall of the shared
// host, swung between 1% and 5% from run to run, across the 1% that
// read_p99_ms looks at; released, collections come every 45 ms and the
// slow share stays near 3%.
func (in *inputs) dropLoad() {
	in.load, in.loadBodies = nil, nil
}

// rowGen draws rows whose attributes have Zipf-skewed inclusion
// probabilities, with one planted itemset in plantFreq of the rows.
// Attribute a has popularity rank a; the seed draws the rows, the
// planted itemset and the queries.
type rowGen struct {
	r     *rand.Rand
	prob  [numAttrs]float64
	plant uint64
	zipf  *rand.Zipf
}

func newRowGen(seed uint64) *rowGen {
	g := &rowGen{r: rand.New(rand.NewPCG(seed, 0x6265_6e63_6869_7465))}
	for a := range g.prob {
		g.prob[a] = attrTopProb * math.Pow(float64(a+1), -attrSkew)
	}
	// The planted attributes come from the middle ranks, so they are
	// heavy only because of the plant.
	for _, a := range g.r.Perm(numAttrs / 2)[:3] {
		g.plant |= 1 << (numAttrs/4 + a)
	}
	g.zipf = rand.NewZipf(g.r, querySkew, 1, numAttrs-1)
	return g
}

// row draws one row as an attribute bit mask.
func (g *rowGen) row() uint64 {
	var m uint64
	for a, p := range g.prob {
		if g.r.Float64() < p {
			m |= 1 << a
		}
	}
	if g.r.Float64() < plantFreq {
		m |= g.plant
	}
	return m
}

// itemset draws k distinct attributes by Zipf popularity rank.
func (g *rowGen) itemset(k int) dataset.Itemset {
	var m uint64
	for popcount(m) < k {
		m |= 1 << g.zipf.Uint64()
	}
	return dataset.MustItemset(maskAttrs(nil, m)...)
}

func popcount(m uint64) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// maskAttrs appends the set attributes of m in increasing order.
func maskAttrs(dst []int, m uint64) []int {
	for a := 0; m != 0; a, m = a+1, m>>1 {
		if m&1 != 0 {
			dst = append(dst, a)
		}
	}
	return dst
}

// appendRows encodes rows as an ingest body: {"rows":[[0,2],[1]]}.
func appendRows(dst []byte, rows []uint64) []byte {
	dst = append(dst, `{"rows":[`...)
	for i, m := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendAttrs(dst, maskAttrs(nil, m))
	}
	return append(dst, "]}"...)
}

func appendAttrs(dst []byte, attrs []int) []byte {
	dst = append(dst, '[')
	for j, a := range attrs {
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(a), 10)
	}
	return append(dst, ']')
}

func estimateBody(sets []dataset.Itemset, window bool) []byte {
	b := []byte(`{"itemsets":[`)
	for i, t := range sets {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendAttrs(b, t.Attrs())
	}
	b = append(b, ']')
	if window {
		b = append(b, `,"window":true`...)
	}
	return append(b, '}')
}

// generate builds the run's inputs for w from seed: load rows to load,
// liveRows more for the live_ingest writer, the read pool, and the
// exact answer of every pooled itemset over every generated row.
func generate(w workload, seed uint64, load, liveRows int) *inputs {
	g := newRowGen(seed)
	in := &inputs{plant: maskAttrs(nil, g.plant)}
	// d = 64 makes every row of the exact database one word.
	exact := dataset.NewDatabase(numAttrs)
	exact.Grow(load + liveRows)
	next := 0
	addRows := func(n, batch int) [][]uint64 {
		var out [][]uint64
		for lo := 0; lo < n; lo += batch {
			rows := make([]uint64, min(batch, n-lo))
			for i := range rows {
				rows[i] = g.row()
				exact.RowWords(next)[0] = rows[i]
				next++
			}
			out = append(out, rows)
		}
		return out
	}
	in.load = addRows(load, loadBatchRows)
	for _, rows := range in.load {
		in.loadBodies = append(in.loadBodies, appendRows(nil, rows))
	}
	if liveRows > 0 {
		in.liveRows = addRows(liveRows, liveBatchRows)
		for _, rows := range in.liveRows {
			in.liveBodies = append(in.liveBodies, appendRows(nil, rows))
		}
	}
	in.pool = readPool(w, g)
	exact.BuildColumnIndex()
	for _, req := range in.pool {
		counts := make([]int, len(req.sets))
		exact.CountManyInto(counts, req.sets)
		req.truth = make([]float64, len(counts))
		for i, c := range counts {
			req.truth[i] = float64(c) / float64(exact.NumRows())
		}
	}
	return in
}

// readPool draws the workload's read requests. The closed-loop readers
// cycle through the pool.
func readPool(w workload, g *rowGen) []*request {
	if w.bulk {
		pool := make([]*request, 64)
		for i := range pool {
			sets := make([]dataset.Itemset, 256)
			for j := range sets {
				sets[j] = g.itemset(2 + g.r.IntN(3))
			}
			pool[i] = &request{kind: kindEstimate, path: "/v1/estimate", sets: sets, body: estimateBody(sets, false)}
		}
		return pool
	}
	// Exact shares of each kind in the read mix, in a seeded order.
	share := [numKinds]float64{kindEstimate: 0.90, kindHeavy: 0.05, kindMine: 0.05}
	if w.live {
		share = [numKinds]float64{kindEstimate: 0.70, kindWindowEstimate: 0.10, kindHeavy: 0.10, kindWindowHeavy: 0.05, kindMine: 0.05}
	}
	const poolSize = 2000
	var kinds []reqKind
	for k, f := range share {
		for range int(math.Round(f * poolSize)) {
			kinds = append(kinds, reqKind(k))
		}
	}
	g.r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	pool := make([]*request, len(kinds))
	for i, k := range kinds {
		req := &request{kind: k}
		switch k {
		case kindEstimate, kindWindowEstimate:
			req.path = "/v1/estimate"
			req.sets = make([]dataset.Itemset, 1+g.r.IntN(4))
			for j := range req.sets {
				req.sets[j] = g.itemset(2 + g.r.IntN(2))
			}
			req.body = estimateBody(req.sets, k == kindWindowEstimate)
		case kindHeavy, kindWindowHeavy:
			req.path = "/v1/heavyhitters"
			req.body = fmt.Appendf(nil, `{"phi":%g,"window":%t}`, heavyPhi, k == kindWindowHeavy)
		case kindMine:
			req.path = "/v1/mine"
			req.body = fmt.Appendf(nil, `{"min_support":%g,"max_k":%d}`, mineMinSup, mineMaxK)
		}
		pool[i] = req
	}
	return pool
}

// lemma9Eps is the For-All Estimator ε that Lemma 9 gives a uniform
// sample of s rows for k-itemsets over d attributes at failure
// probability δ: s = ln(2·C(d,k)/δ)/(2ε²) solved for ε.
func lemma9Eps(s, d, k int, delta float64) float64 {
	return math.Sqrt((math.Log(2/delta) + combin.LogBinomial(d, k)) / (2 * float64(s)))
}

// sampleRows is the number of sample rows that answer a full 8/8
// estimate: whole-stream reservoirs are full after the load, and a
// window answer is backed by at least the seven full buckets of every
// shard (the newest bucket may still be filling).
func (w workload) sampleRows(window bool) int {
	if window {
		return numShards * (windowBuckets - 1) * windowCapacity
	}
	return numShards * w.capacity
}
