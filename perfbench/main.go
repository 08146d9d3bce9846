// Command perfbench is the repository's end-to-end benchmark. It runs
// the sharded service (internal/service: 8 shards, d = 64) in-process
// behind a loopback net/http listener, loads ≈1M generated rows through
// POST /v1/ingest, drives one workload over 2 client connections,
// checks every answer, and prints the metrics.
//
//	perfbench --workload point_read|bulk_read|live_ingest --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics, measured with
// tracing off. With --trace 1 it runs the same workload twice in one
// process, untraced and then traced, replays sampled requests down the
// stack through each layer's public API, writes the spans, and reports
// per-layer self times, the unexplained remainder and the tracing
// overhead. The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{…}}. Any failed
// request or answer check makes the exit status non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/bitvec"
)

// setups is how many times a run sets the service up; setup_s and
// load_rows_per_s are taken over the quietest half of them.
const setups = 7

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line flags.
type options struct {
	w       workload
	seed    uint64
	seconds int
	trace   bool
	work    string
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "point_read, bulk_read or live_ingest")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer replay")
	work := fs.String("work", ".bench_build", "directory for checkpoints and the span file")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return options{}, err
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return options{}, fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}
	return options{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, work: *work}, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := execute(ctx, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs one workload and returns its result; an error means no
// result could be measured.
func execute(ctx context.Context, o options, log io.Writer) (*result, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	record, _ := json.Marshal(map[string]any{
		"workload": o.w.name, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"kernels": bitvec.KernelFeatures(), "checkpoint_fs": fsType(dir), "why": o.w.why,
	})
	fmt.Fprintf(log, "run %s\n", record)

	liveRows := 0
	if o.w.live {
		// Enough rows for the paced writer, with margin for late batches.
		liveRows = liveRowsPerSec * (o.seconds + 2)
	}
	in := generate(o.w, o.seed, loadRows, liveRows)
	b := &bench{w: o.w, seed: o.seed, in: in, ck: checker{w: o.w, plant: in.plant}}
	n := setups
	if o.trace {
		n = 1
	}
	st, err := b.setUp(ctx, n, dir)
	if b.srv != nil {
		defer b.srv.close()
	}
	if err != nil {
		return nil, err
	}
	total, acked := st.tally, st.acked
	var metrics map[string]metric
	if o.trace {
		tr, err := newTracer(ctx, b, dir)
		if err != nil {
			return nil, err
		}
		defer tr.close()
		b.in.dropLoad()
		half := time.Duration(o.seconds) * time.Second / 2
		runtime.GC()
		untraced := b.phase(ctx, half, nil)
		traced := b.phase(ctx, half, tr)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		total.record(tr.replayCheckpoints())
		total.add(untraced.tally)
		total.add(traced.tally)
		acked += untraced.rowsAcked + traced.rowsAcked
		metrics = tr.metrics(untraced, traced, log)
		acks := untraced.acks
		if !o.w.live {
			acks = st.loadAcks[0]
		}
		metrics["ingest_ack_p99_ms"] = metric{Value: ms(percentile(acks, 0.99)), Unit: "ms"}
		path := filepath.Join(o.work, "spans-"+o.w.name+".jsonl")
		if err := tr.writeSpans(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "spans: %d written to %s\n", len(tr.spans), path)
	} else {
		b.in.dropLoad()
		runtime.GC()
		ph := b.phase(ctx, time.Duration(o.seconds)*time.Second, nil)
		total.add(ph.tally)
		acked += ph.rowsAcked
		metrics = endToEnd(o, st, ph, log)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	total.record(b.checkSeen(ctx, acked))
	total.record(b.checkFidelity(ctx))
	fmt.Fprintf(log, "error_ratio %g (failed/attempted = %d/%d)\n",
		ratio(float64(total.failed), float64(total.attempted), 0), total.failed, total.attempted)
	if total.firstErr != nil {
		fmt.Fprintln(log, "first failure:", total.firstErr)
	}
	for _, name := range sortedKeys(metrics) {
		fmt.Fprintf(log, "  %-34s %14.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	return &result{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed, Metrics: metrics}, nil
}

// setupStats is what setting the service up n times measured.
type setupStats struct {
	tally
	secs, loadSecs []float64
	loaded         []int64           // rows acked by each load
	stolen         []float64         // share of the CPUs the host took during each
	loadAcks       [][]time.Duration // per load
	acked          int64             // rows the kept service acked
}

// setUp builds, loads and warms the service n times, keeping the last
// one in b.srv. The clock covers service.New, the HTTP load and the
// warm-up; inputs were generated before it starts.
func (b *bench) setUp(ctx context.Context, n int, dir string) (setupStats, error) {
	var st setupStats
	for i := 0; i < n; i++ {
		if b.srv != nil {
			if err := b.srv.close(); err != nil {
				return st, err
			}
			b.srv = nil
		}
		runtime.GC()
		c0 := sampleCPU()
		t0 := time.Now()
		srv, err := startServer(b.w.config(b.seed, filepath.Join(dir, fmt.Sprintf("ckpt-%d", i))))
		if err != nil {
			return st, err
		}
		b.srv = srv
		lr := load(ctx, srv.url, b.in.loadBodies, loadBatchRows)
		st.add(lr.tally)
		st.add(b.warmUp(ctx))
		st.secs = append(st.secs, time.Since(t0).Seconds())
		st.stolen = append(st.stolen, stolen(c0, sampleCPU()))
		st.loadSecs = append(st.loadSecs, lr.elapsed.Seconds())
		st.loaded = append(st.loaded, lr.rows)
		st.loadAcks = append(st.loadAcks, lr.acks)
		st.acked = lr.rows
		if err := ctx.Err(); err != nil {
			return st, err
		}
	}
	return st, nil
}

// endToEnd computes the end-to-end metrics over the quietest half of
// the run (see quietest): the read rate as the median over one-second
// windows, read latency percentiles over the pooled reads of those
// windows, setup time as the median set-up, the load rate over the
// loads together, and ack latencies over the pooled batches of the
// quietest five-second windows on live_ingest, or of the loads on the
// read-only workloads, which ingest only while loading (closed loop,
// each batch due when sent).
//
// The read percentiles pool the reads of the kept windows: on bulk_read
// about 3% of reads take twice the median, those that overlap a
// collection or a stall of the shared host, so the p99 of one window
// lands below or inside that slow share by chance, and the p99 of ten
// thousand and more pooled reads does not.
func endToEnd(o options, st setupStats, ph phaseResult, log io.Writer) map[string]metric {
	ws := ph.windows(1)
	reads := split(ph.reads, ph.readAt, ws)
	var opsPerSec []float64
	var quietReads []time.Duration
	readQuiet := quietest(stolenOf(ws))
	for _, i := range readQuiet {
		ok := 0
		for _, l := range reads[i] {
			if l != failedLatency {
				ok++
			}
		}
		opsPerSec = append(opsPerSec, float64(ok)/(ws[i].to-ws[i].from).Seconds())
		quietReads = append(quietReads, reads[i]...)
	}
	// Ack latencies pool the quietest set-ups' loads, or on live_ingest
	// the quietest five-second windows, so their p99 rests on thousands
	// of batches.
	ackSets, ackQuiet := st.loadAcks, quietest(st.stolen)
	if o.w.live {
		ws5 := ph.windows(5)
		ackSets, ackQuiet = split(ph.acks, ph.ackAt, ws5), quietest(stolenOf(ws5))
	}
	var acks []time.Duration
	for _, i := range ackQuiet {
		acks = append(acks, ackSets[i]...)
	}
	setupQuiet := quietest(st.stolen)
	var secs []float64
	var rows, loadSecs float64
	for _, i := range setupQuiet {
		secs = append(secs, st.secs[i])
		rows += float64(st.loaded[i])
		loadSecs += st.loadSecs[i]
	}
	fmt.Fprintf(log, "samples: %d reads (%d in the quietest windows), %d ingest acks; quietest windows used: reads %d of %d, acks %d of %d, set-ups %d of %d (stolen %.2f)\n",
		len(ph.reads), len(quietReads), len(acks), len(readQuiet), len(ws), len(ackQuiet), len(ackSets), len(setupQuiet), len(st.secs), st.stolen)
	m := map[string]metric{}
	add := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	add("setup_s", "s", median(secs))
	add("load_rows_per_s", "rows/s", rows/loadSecs)
	add("read_ops_per_s", "req/s", median(opsPerSec))
	add("read_p50_ms", "ms", ms(percentile(quietReads, 0.50)))
	add("read_p99_ms", "ms", ms(percentile(quietReads, 0.99)))
	add("ingest_ack_p50_ms", "ms", ms(percentile(acks, 0.50)))
	// The ack p99 is printed but not among the bounded metrics: on a
	// shared 2-vCPU virtual machine the read-only workloads' load-batch
	// p99 swung 1.5–2.1 ms between runs of one seed, whatever GOGC was,
	// too wide for any bound the benchmark may set. The traced run
	// reports it per layer.
	fmt.Fprintf(log, "  %-34s %14.6g ms (unbounded)\n", "ingest_ack_p99_ms", ms(percentile(acks, 0.99)))
	return m
}

func stolenOf(ws []window) []float64 {
	s := make([]float64, len(ws))
	for i, w := range ws {
		s[i] = w.stolen
	}
	return s
}
