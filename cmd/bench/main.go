// Command bench runs the operational benchmarks of the public API and
// writes the results as JSON, so successive PRs accumulate a perf
// trajectory (BENCH_1.json, BENCH_2.json, ...) that can be compared
// mechanically.
//
// Usage:
//
//	go run ./cmd/bench -out BENCH_7.json                          # full run
//	go run ./cmd/bench -quick -out bench.json                     # CI smoke run
//	go run ./cmd/bench -quick -out b.json -compare BENCH_6.json   # + regression gate
//
// With -compare, the gated benchmark families (sketch builds,
// streaming ingest and the miners — the operations a PR must not slow
// down) that appear in both runs are checked against the baseline
// ns/op; any regression beyond -maxregress (default 20%) fails the run
// with exit status 1. Gated rows are measured best-of-3 (minimum
// ns/op over repetitions) so contention jitter on a shared runner
// cannot flap the gate. Query benchmarks are reported but not gated,
// since their thresholds live with the fuzz/property tests instead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	itemsketch "repro"
	"repro/internal/bitvec"
	"repro/internal/ingest"
	"repro/internal/rng"
	"repro/internal/service"
)

type result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

type report struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CPUFeatures is the bitvec kernel layer's detected dispatch state
	// (e.g. "avx2=true"). A perf delta between two BENCH files with
	// different cpu_features is a dispatch-path change, not a
	// code-change signal.
	CPUFeatures string   `json:"cpu_features"`
	Notes       string   `json:"notes,omitempty"`
	Results     []result `json:"results"`
}

func benchDB(n, d int) *itemsketch.Database {
	r := rng.New(1)
	db := itemsketch.NewDatabase(d)
	for i := 0; i < n; i++ {
		var attrs []int
		for a := 0; a < d; a++ {
			if r.Bernoulli(0.1) {
				attrs = append(attrs, a)
			}
		}
		db.AddRowAttrs(attrs...)
	}
	return db
}

// gatedPrefixes name the benchmark families gated by -compare: the
// sketch-construction and streaming-ingest paths, plus the miners
// (mine_eclat, mine_eclat_dense, mine_eclat_diffset, mine_apriori,
// mine_apriori_trie) since the allocation-free engine made them a
// guarded hot path too.
//
// importance_ingest is recorded but NOT gated: its amortized design
// (one Sketch call grows a multi-megabyte arena inside the timed
// region, per-op = per sampled row) measures ±25% run to run on the
// shared reference container with byte-identical code — beyond the
// 20% threshold, so gating it only produces false alarms. Its
// allocs/op (0) is the stable signal and is pinned by the recorded
// BENCH files.
var gatedPrefixes = []string{
	// The word-slice kernels underneath every query and miner: the
	// dispatched AND/ANDN popcount and store+count entry points at the
	// two operand sizes the query tiers actually run (one 10k-row
	// column = 157 words, one 100k-row column = 1563 words). These pin
	// the SIMD dispatch itself — a regression here means the kernel
	// layer stopped selecting (or stopped winning on) the vector path.
	"kernel_",
	"sketch_build",
	"subsample_build",
	"median_amplifier_build",
	"reservoir_add",
	"countsketch_",
	"heavyhitters_",
	"mine_",
	"wal_",
	"ingest_concurrent_",
	"windowed_",
	// The memoized service read paths: repeated hot queries must stay
	// cache-hits (one cross-shard merge per snapshot generation), so a
	// regression here means the merge caches stopped absorbing repeats.
	"service_estimate_coalesced",
	"service_mine_hot",
	"service_hh_mg_hot",
}

func isGated(name string) bool {
	for _, p := range gatedPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// compareBaseline checks the gated benchmarks present in both runs and
// returns the names that regressed beyond maxRegress.
func compareBaseline(baseline report, results []result, maxRegress float64) []string {
	base := make(map[string]float64, len(baseline.Results))
	for _, r := range baseline.Results {
		base[r.Name] = r.NsPerOp
	}
	var failures []string
	for _, r := range results {
		b, ok := base[r.Name]
		if !ok || !isGated(r.Name) || b <= 0 {
			continue
		}
		ratio := r.NsPerOp / b
		status := "ok"
		if ratio > 1+maxRegress {
			status = "REGRESSED"
			failures = append(failures, r.Name)
		}
		fmt.Printf("compare %-32s %8.1f -> %8.1f ns/op  (%+.1f%%)  %s\n",
			r.Name, b, r.NsPerOp, (ratio-1)*100, status)
	}
	return failures
}

func main() {
	out := flag.String("out", "BENCH_7.json", "output JSON path")
	quick := flag.Bool("quick", false, "smaller databases for CI smoke runs")
	compare := flag.String("compare", "", "baseline BENCH_*.json to gate benchmarks against")
	maxRegress := flag.Float64("maxregress", 0.20, "allowed fractional ns/op regression vs -compare baseline")
	flag.Parse()

	nRows := 100000
	nBuild := 50000
	nMine := 10000
	if *quick {
		nRows, nBuild, nMine = 20000, 10000, 2000
	}

	var results []result
	record := func(name string, f func(b *testing.B)) {
		// Gated rows are measured best-of-3: the shared reference
		// container shows >20% run-to-run jitter from CPU contention
		// on byte-identical code, so a single draw flaps the -compare
		// gate on a random row each run. The minimum over repetitions
		// is the standard contention-robust estimator — noise only
		// ever adds time — and keeps the 20% gate meaningful. Ungated
		// rows stay single-shot.
		reps := 1
		if isGated(name) {
			reps = 3
		}
		var best testing.BenchmarkResult
		var bestNs float64
		for rep := 0; rep < reps; rep++ {
			// Settle the heap between benchmarks: GC pacing inherited
			// from a previous benchmark's garbage otherwise bleeds into
			// allocation-heavy measurements (importance_ingest grows a
			// multi-megabyte arena inside its timed pass and is ~40%
			// noisier without this).
			runtime.GC()
			r := testing.Benchmark(f)
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			if rep == 0 || ns < bestNs {
				best, bestNs = r, ns
			}
		}
		results = append(results, result{
			Name:        name,
			NsPerOp:     bestNs,
			AllocsPerOp: best.AllocsPerOp(),
			BytesPerOp:  best.AllocedBytesPerOp(),
			Iterations:  best.N,
		})
		fmt.Printf("%-32s %12.1f ns/op %8d allocs/op %10d B/op\n",
			name, bestNs, best.AllocsPerOp(), best.AllocedBytesPerOp())
	}

	ctx := context.Background()
	p := itemsketch.Params{K: 2, Eps: 0.05, Delta: 0.05,
		Mode: itemsketch.ForAll, Task: itemsketch.Estimator}

	// Word-slice kernels through the public dispatched entry points, at
	// the column sizes of the 10k-row (157-word) and 100k-row
	// (1563-word) reference databases. cpu_features in the report header
	// records which path (assembly vs pure Go) these numbers measure.
	{
		var sinkKernel int
		for _, nw := range []int{157, 1563} {
			a := make([]uint64, nw)
			bw := make([]uint64, nw)
			dst := make([]uint64, nw)
			r := rng.New(uint64(nw))
			for i := range a {
				a[i] = r.Uint64()
				bw[i] = r.Uint64()
			}
			record(fmt.Sprintf("kernel_andcount_w%d", nw), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sinkKernel = bitvec.AndCountWords(a, bw)
				}
			})
			record(fmt.Sprintf("kernel_andnotcount_w%d", nw), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sinkKernel = bitvec.AndNotCountWords(a, bw)
				}
			})
			record(fmt.Sprintf("kernel_andinto_w%d", nw), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sinkKernel = bitvec.AndInto(dst, a, bw)
				}
			})
		}
		// The k-way count behind every itemset estimate of size k >= 3,
		// at the 512-word columns of one 32,768-row service shard sample.
		r := rng.New(512)
		cols := make([][]uint64, 4)
		for j := range cols {
			cols[j] = make([]uint64, 512)
			for i := range cols[j] {
				cols[j][i] = r.Uint64()
			}
		}
		for _, k := range []int{3, 4} {
			record(fmt.Sprintf("kernel_andcountall_k%d_w512", k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sinkKernel = bitvec.AndCountAll(cols[:k])
				}
			})
		}
		_ = sinkKernel
	}

	// Exact frequency query, vertical fused path.
	{
		db := benchDB(nRows, 64)
		db.BuildColumnIndex()
		T := itemsketch.MustItemset(3, 41, 50)
		record("exact_frequency_query", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = db.Frequency(T)
			}
		})
	}

	// Horizontal scan, serial vs sharded.
	{
		db := benchDB(nRows, 64)
		T := itemsketch.MustItemset(3, 41, 50)
		record("scan_serial", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = db.ScanCount(T, 1)
			}
		})
		workers := runtime.GOMAXPROCS(0)
		if workers < 2 {
			workers = 2
		}
		record("scan_parallel", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = db.ScanCount(T, workers)
			}
		})
	}

	// Batched exact queries on the vertical index.
	{
		db := benchDB(nRows, 64)
		db.BuildColumnIndex()
		r := rng.New(99)
		ts := make([]itemsketch.Itemset, 256)
		for i := range ts {
			a := r.Intn(64)
			c := (a + 1 + r.Intn(63)) % 64
			ts[i] = itemsketch.MustItemset(a, c)
		}
		dst := make([]int, len(ts))
		record("count_many_256", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db.CountManyInto(dst, ts)
			}
		})
	}

	// Sketch build and query.
	{
		db := benchDB(nBuild, 64)
		record("sketch_build_subsample", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (itemsketch.Subsample{Seed: uint64(i)}).Sketch(db, p); err != nil {
					b.Fatal(err)
				}
			}
		})
		// Large-sample build, serial vs parallel, through the public
		// Build path with a per-build worker budget. The sample spans
		// several deterministic construction chunks so the sharded
		// build engages; with one CPU both variants should match.
		// Workload-size-dependent benchmarks carry the size in their
		// name so -compare can never silently match a -quick run
		// against a full-run baseline of the same label.
		buildSample := 1 << 15
		if *quick {
			buildSample = 1 << 13
		}
		recordBuild := func(name string, workers int) {
			record(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, _, err := itemsketch.Build(ctx, db,
						itemsketch.WithParams(p),
						itemsketch.WithAlgorithm(itemsketch.Subsample{SampleOverride: buildSample}),
						itemsketch.WithSeed(uint64(i)),
						itemsketch.WithWorkers(workers))
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		recordBuild(fmt.Sprintf("subsample_build_serial_s%d", buildSample), 1)
		recordBuild(fmt.Sprintf("subsample_build_parallel_s%d", buildSample), 0)

		// Theorem 17 amplifier: independent sub-sketches fanned out
		// across the worker pool, deterministically seeded per copy.
		copies := 32
		if *quick {
			copies = 8
		}
		m := itemsketch.MedianAmplifier{
			Base:           itemsketch.Subsample{Seed: 1, SampleOverride: 2048},
			CopiesOverride: copies,
		}
		recordAmp := func(name string, workers int) {
			record(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, _, err := itemsketch.Build(ctx, db,
						itemsketch.WithParams(p),
						itemsketch.WithAlgorithm(m),
						itemsketch.WithSeed(1),
						itemsketch.WithWorkers(workers))
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		recordAmp(fmt.Sprintf("median_amplifier_build_serial_c%d", copies), 1)
		recordAmp(fmt.Sprintf("median_amplifier_build_c%d", copies), 0)

		// Amortized per-row ingest of the arena-backed importance
		// sampler: one Sketch call draws b.N rows, so per-op numbers
		// are per sampled row and fixed setup costs amortize to
		// 0 allocs/op.
		record("importance_ingest", func(b *testing.B) {
			b.ReportAllocs()
			is := itemsketch.ImportanceSample{Seed: 1, SampleOverride: b.N}
			if _, err := is.Sketch(db, p); err != nil {
				b.Fatal(err)
			}
		})
		sk, err := (itemsketch.Subsample{Seed: 1}).Sketch(db, p)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		es := sk.(itemsketch.EstimatorSketch)
		T := itemsketch.MustItemset(3, 41)
		record("sketch_query_estimate", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = es.Estimate(T)
			}
		})
		// Wire round trip through the self-describing envelope
		// (streamed chunked encode + decode over pooled buffers).
		record("sketch_envelope_roundtrip", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := itemsketch.Unmarshal(itemsketch.Marshal(sk)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Hierarchical count sketch: per-item update cost across all dyadic
	// levels, the median-of-rows point estimate, and the recursive
	// heavy-hitter descent over a Zipfian stream.
	{
		cs, err := itemsketch.NewCountSketch(itemsketch.CountSketchConfig{
			Universe: 1 << 16, Rows: 5, Cols: 1024, Base: 16, Seed: 1})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		r := rng.New(5)
		z := rng.NewZipf(r, 1<<16, 1.2)
		items := make([]int, 1<<14)
		for i := range items {
			items[i] = z.Next()
		}
		record("countsketch_ingest", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cs.Add(items[i&(1<<14-1)])
			}
		})
		record("countsketch_estimate", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = cs.EstimateCount(items[i&(1<<14-1)])
			}
		})
		record("heavyhitters_find", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = cs.HeavyHitters(0.01)
			}
		})
	}

	// Streaming ingest.
	{
		res, err := itemsketch.NewReservoir(64, 10000, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		record("reservoir_add_attrs", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res.AddAttrs(i%64, (i+7)%64, (i+13)%64)
			}
		})
	}

	// Streaming ingest subsystem: WAL append/replay, the concurrent
	// pool at 1 and 4 writers, and the sliding-window sampler. All
	// rows are fixed-size workloads (independent of -quick) so the
	// names gate across run modes. The 4w/1w rows-per-second ratio is
	// recorded ungated (pool_speedup_4w): on the single-CPU reference
	// container the workers serialize and the ratio hovers near 1; it
	// becomes meaningful (target ≥ 2x) only at GOMAXPROCS ≥ 4.
	{
		mkRows := func(n int) [][]int {
			r := rng.New(21)
			rows := make([][]int, n)
			for i := range rows {
				var attrs []int
				for a := 0; a < 64; a++ {
					if r.Bernoulli(0.1) {
						attrs = append(attrs, a)
					}
				}
				rows[i] = attrs
			}
			return rows
		}
		rows := mkRows(8192)
		walBench, err := os.MkdirTemp("", "bench-wal-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer os.RemoveAll(walBench)
		w, err := ingest.OpenWAL(ingest.WALConfig{Dir: walBench, NumAttrs: 64})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		record("wal_append", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := w.Append(rows[i&8191]...); err != nil {
					b.Fatal(err)
				}
			}
		})
		if err := w.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// Replay a fixed 8192-row log per op (segments already on disk
		// from a dedicated directory, so wal_append's b.N-dependent log
		// size never leaks into this row).
		replayDir, err := os.MkdirTemp("", "bench-walreplay-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer os.RemoveAll(replayDir)
		rw, err := ingest.OpenWAL(ingest.WALConfig{Dir: replayDir, NumAttrs: 64})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, row := range rows {
			if err := rw.Append(row...); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if err := rw.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		record("wal_replay", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n, err := ingest.ReplayDir(replayDir, 64, nil, func([]int) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
				if n != 8192 {
					b.Fatalf("replayed %d rows, want 8192", n)
				}
			}
		})

		poolNs := make(map[int]float64, 2)
		for _, workers := range []int{1, 4} {
			pl, err := ingest.NewPool(ingest.PoolConfig{
				NumAttrs: 64, Workers: workers, SampleCapacity: 4096,
				HeavyK: 64, Seed: 1,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			name := fmt.Sprintf("ingest_concurrent_%dw", workers)
			record(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := pl.Add(rows[i&8191]...); err != nil {
						b.Fatal(err)
					}
				}
				if err := pl.Flush(); err != nil {
					b.Fatal(err)
				}
			})
			poolNs[workers] = results[len(results)-1].NsPerOp
			if err := pl.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if poolNs[4] > 0 {
			speedup := poolNs[1] / poolNs[4]
			results = append(results, result{
				Name:       "pool_speedup_4w",
				NsPerOp:    speedup,
				Iterations: 1,
			})
			fmt.Printf("%-32s %12.2fx rows/s vs 1 writer (GOMAXPROCS=%d; target ≥ 2x needs ≥ 4 CPUs)\n",
				"pool_speedup_4w", speedup, runtime.GOMAXPROCS(0))
		}

		win, err := itemsketch.NewWindowedReservoir(64, 65536, 8, 4096, 1, p)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		record("windowed_ingest", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				win.AddAttrs(rows[i&8191]...)
			}
		})
	}

	// Miners. The sparse market-basket workload runs on a warm reusable
	// Miner (steady-state allocation-free Eclat, trie Apriori with one
	// batched query per level); the dense uniform workload pits the
	// forced-tidset baseline against forced diffsets, where the dEclat
	// early exit pays off.
	{
		r := rng.New(1)
		gen := benchMarketBasket(r, nMine, 48)
		gen.BuildColumnIndex()
		miner := itemsketch.NewMiner()
		record("mine_eclat", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = miner.Eclat(gen, 0.05, 3)
			}
		})
		q := itemsketch.QueryDatabase(gen)
		record("mine_apriori", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := itemsketch.AprioriContext(ctx, q, 0.05, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
		record("mine_apriori_trie", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := miner.AprioriContext(ctx, q, 0.05, 3); err != nil {
					b.Fatal(err)
				}
			}
		})

		// The dense workload is size-independent of -quick so the
		// tidset-vs-diffset comparison always runs on the same regime:
		// 0.7-density columns (every root switches to its complement),
		// a threshold between the pair and triple support levels, so
		// almost every triple candidate fails — via a capped diffset
		// kernel that bails within a block or two, where the tidset
		// baseline pays every full pass.
		dense := benchDenseDB(10000, 48, 0.7)
		dense.BuildColumnIndex()
		record("mine_eclat_dense", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = miner.EclatWith(dense, 0.45, 3, itemsketch.EclatTidsets)
			}
		})
		record("mine_eclat_diffset", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = miner.EclatWith(dense, 0.45, 3, itemsketch.EclatDiffsets)
			}
		})
	}

	// Sharded service tier: ingest throughput and query latency through
	// the fan-out/merge path (the Service API directly; HTTP codec cost
	// is not part of these numbers). The p99 row is a latency quantile,
	// not a throughput mean: NsPerOp holds the 99th-percentile
	// single-query latency over Iterations sequential calls. Reported,
	// not gated — tail latency on the shared reference container is too
	// noisy for a 20% gate.
	{
		svc, err := service.New(service.Config{
			Shards: 8, NumAttrs: 64, SampleCapacity: 4096, Seed: 1,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		r := rng.New(11)
		batch := make([][]int, 256)
		for i := range batch {
			var attrs []int
			for a := 0; a < 64; a++ {
				if r.Bernoulli(0.1) {
					attrs = append(attrs, a)
				}
			}
			batch[i] = attrs
		}
		record("service_ingest_batch256", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := svc.Ingest(ctx, batch); err != nil {
					b.Fatal(err)
				}
			}
		})
		ts := make([]itemsketch.Itemset, 64)
		for i := range ts {
			a := r.Intn(64)
			c := (a + 1 + r.Intn(63)) % 64
			ts[i] = itemsketch.MustItemset(a, c)
		}
		record("service_estimate_batch64", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := svc.Estimate(ctx, ts); err != nil {
					b.Fatal(err)
				}
			}
		})
		// p99 single-query latency across the 8-shard fan-out.
		nLat := 2000
		if *quick {
			nLat = 500
		}
		one := ts[:1]
		lats := make([]time.Duration, nLat)
		for i := range lats {
			start := time.Now()
			if _, _, err := svc.Estimate(ctx, one); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			lats[i] = time.Since(start)
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		p99 := lats[nLat*99/100]
		results = append(results, result{
			Name:       "service_estimate_p99",
			NsPerOp:    float64(p99.Nanoseconds()),
			Iterations: nLat,
		})
		fmt.Printf("%-32s %12.1f ns/op (p99 latency, %d samples)\n",
			"service_estimate_p99", float64(p99.Nanoseconds()), nLat)

		// Hot memoized read paths: with ingest quiesced, repeated heavy
		// hitter and mining queries must ride the merged-snapshot caches
		// (one cross-shard merge per snapshot generation, then pure
		// cache hits). One warming call pays the merge outside the timed
		// region. The MG heavy-hitter row is nearly free once cached —
		// it reports the memoized answer; the mine row still runs the
		// Apriori pass per request over the cached union sample.
		if _, _, _, err := svc.HeavyHitters(ctx, 0.2); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if _, _, err := svc.Mine(ctx, 0.3, 2); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		record("service_hh_mg_hot", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := svc.HeavyHitters(ctx, 0.2); err != nil {
					b.Fatal(err)
				}
			}
		})
		record("service_mine_hot", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := svc.Mine(ctx, 0.3, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
		svc.Close()
	}

	// Coalesced query tier: 8 concurrent single-itemset estimates per
	// op through a coalesce-enabled service — the collector batches
	// them into (ideally) one fan-out, so ns/op is the cost of
	// answering 8 concurrent requests, goroutine handoff included.
	{
		svc, err := service.New(service.Config{
			Shards: 8, NumAttrs: 64, SampleCapacity: 4096, Seed: 1,
			Coalesce: &service.CoalesceConfig{Linger: 100 * time.Microsecond, MaxBatch: 8},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		r := rng.New(13)
		rows := make([][]int, 4096)
		for i := range rows {
			var attrs []int
			for a := 0; a < 64; a++ {
				if r.Bernoulli(0.1) {
					attrs = append(attrs, a)
				}
			}
			rows[i] = attrs
		}
		if _, err := svc.Ingest(ctx, rows); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		qs := make([][]itemsketch.Itemset, 8)
		for i := range qs {
			a := r.Intn(64)
			c := (a + 1 + r.Intn(63)) % 64
			qs[i] = []itemsketch.Itemset{itemsketch.MustItemset(a, c)}
		}
		record("service_estimate_coalesced", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make([]error, len(qs))
				for j := range qs {
					wg.Add(1)
					go func(j int) {
						defer wg.Done()
						_, _, errs[j] = svc.Estimate(ctx, qs[j])
					}(j)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		svc.Close()
	}

	rep := report{
		Date:        time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CPUFeatures: bitvec.KernelFeatures(),
		Notes:       "kernel_* rows measure the dispatched bitvec word kernels (AND/ANDN popcount and store+count) at 157- and 1563-word operands — the 10k- and 100k-row column sizes — and the k-way AND popcount (AndCountAll, k = 3 and 4) at 512 words, one 32,768-row service shard sample; cpu_features records whether they ran the AVX2 assembly (avx2=true) or the portable Go loops, so cross-machine comparisons are honest. parallel/sharded variants (scan_parallel, subsample_build_parallel, median_amplifier_build) only beat their serial twins with >1 CPU; on a single-CPU runner read them as no-regression checks. mine_eclat_dense is the forced-tidset baseline on the dense database; mine_eclat_diffset is the same mine with forced diffsets. countsketch_ingest/estimate are per-item costs over a 2^16-universe hierarchical count sketch (5x1024, base 16); heavyhitters_find is one full recursive descent at phi=0.01 on a Zipf(1.2) stream. service_* rows measure the sharded sketch service (8 shards, d=64) through its Go API; service_estimate_p99 is a latency quantile (99th percentile single-query latency), not a throughput mean; the ingest/estimate/p99 service rows are reported, not gated. service_hh_mg_hot and service_mine_hot are the memoized read paths with ingest quiesced (cache-hit cost after one warming merge; mine still runs its Apriori pass per request over the cached union sample) and ARE gated; service_estimate_coalesced is the cost of 8 concurrent single-itemset estimates batched by the request coalescer (100us linger, max batch 8), also gated. wal_append/wal_replay are the write-ahead row log (default 256-row records; replay covers a fixed 8192-row log per op); ingest_concurrent_1w/4w are per-row costs through the concurrent pool; pool_speedup_4w is their rows/s ratio, recorded ungated because it only becomes meaningful (target >= 2x) at GOMAXPROCS >= 4 — on the 1-CPU reference container the writers serialize; windowed_ingest is the sliding-window sampler (65536-row window, 8 buckets).",
		Results:     results,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)

	if *compare != "" {
		raw, err := os.ReadFile(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var baseline report
		if err := json.Unmarshal(raw, &baseline); err != nil {
			fmt.Fprintf(os.Stderr, "bench: parsing baseline %s: %v\n", *compare, err)
			os.Exit(1)
		}
		if failures := compareBaseline(baseline, results, *maxRegress); len(failures) > 0 {
			fmt.Fprintf(os.Stderr, "bench: benchmarks regressed >%.0f%% vs %s: %s\n",
				*maxRegress*100, *compare, strings.Join(failures, ", "))
			os.Exit(1)
		}
	}
}

// benchMarketBasket mirrors the bench_test.go mining workload via the
// public API (Zipfian baskets, mean size 5).
func benchMarketBasket(r *rng.RNG, n, d int) *itemsketch.Database {
	z := rng.NewZipf(r, d, 1.2)
	db := itemsketch.NewDatabase(d)
	for i := 0; i < n; i++ {
		var attrs []int
		seen := make(map[int]bool)
		size := 1 + r.Intn(9)
		for j := 0; j < size; j++ {
			a := z.Next()
			if !seen[a] {
				seen[a] = true
				attrs = append(attrs, a)
			}
		}
		db.AddRowAttrs(attrs...)
	}
	return db
}

// benchDenseDB is a uniform-density database: every attribute is
// present in each row with probability density — the dense regime
// where columns exceed half the rows and dEclat switches to diffsets.
func benchDenseDB(n, d int, density float64) *itemsketch.Database {
	r := rng.New(7)
	db := itemsketch.NewDatabase(d)
	attrs := make([]int, 0, d)
	for i := 0; i < n; i++ {
		attrs = attrs[:0]
		for a := 0; a < d; a++ {
			if r.Bernoulli(density) {
				attrs = append(attrs, a)
			}
		}
		db.AddRowAttrs(attrs...)
	}
	return db
}
