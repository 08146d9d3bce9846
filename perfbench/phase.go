package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// failedLatency stands in for the latency of a failed request, so a
// failure counts as missing every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// tally counts operations attempted and failed, keeping the first error.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// loadResult is one load of the service: rows acked, ack latencies and
// how long it took.
type loadResult struct {
	tally
	rows    int64
	acks    []time.Duration
	elapsed time.Duration
}

// load posts every body to /v1/ingest over 2 connections in a closed
// loop.
func load(ctx context.Context, url string, bodies [][]byte, rowsPerBody int) loadResult {
	var next atomic.Int64
	var parts [2]loadResult
	var wg sync.WaitGroup
	start := time.Now()
	for w := range parts {
		wg.Add(1)
		go func(res *loadResult) {
			defer wg.Done()
			c := newClient(url)
			defer c.close()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(bodies) {
					return
				}
				t0 := time.Now()
				err := c.do(ctx, "POST", "/v1/ingest", bodies[i])
				if err == nil && c.ans.Accepted != rowsPerBody {
					err = fmt.Errorf("ingest: %d of %d rows accepted", c.ans.Accepted, rowsPerBody)
				}
				res.record(err)
				if err != nil {
					res.acks = append(res.acks, failedLatency)
					continue
				}
				res.acks = append(res.acks, time.Since(t0))
				res.rows += int64(c.ans.Accepted)
			}
		}(&parts[w])
	}
	wg.Wait()
	out := loadResult{elapsed: time.Since(start)}
	for _, p := range parts {
		out.add(p.tally)
		out.rows += p.rows
		out.acks = append(out.acks, p.acks...)
	}
	return out
}

// phaseResult is one timed phase.
type phaseResult struct {
	tally
	reads     []time.Duration // one per read request
	readAt    []time.Duration // when each read completed, from the phase start
	kinds     [numKinds]int64 // checked reads by kind
	acks      []time.Duration // live_ingest: batch due time → ack
	ackAt     []time.Duration // when each batch was due, from the phase start
	lags      []time.Duration // live_ingest: batch due time → sent
	rowsAcked int64
	elapsed   time.Duration
	rt        runtimeDelta
	merges    service.MergeBuilds // merge builds during the phase
	cpu       []cpuSample         // about one a second, from the start to the end
}

// cpuSample is a reading of the process's CPU clock and of the CPU
// time the Go runtime had nothing to run.
type cpuSample struct {
	at        time.Time
	cpu, idle float64 // seconds
}

func sampleCPU() cpuSample {
	s := []metrics.Sample{{Name: "/cpu/classes/idle:cpu-seconds"}}
	metrics.Read(s)
	return cpuSample{at: time.Now(), cpu: float64(cpuTime(clockProcess)) / 1e9, idle: s[0].Value.Float64()}
}

// stolen is the share of the process's CPUs between a and b that
// neither ran it nor sat idle in it: time the host ran something else
// on them.
func stolen(a, b cpuSample) float64 {
	avail := b.at.Sub(a.at).Seconds() * float64(runtime.GOMAXPROCS(0))
	return 1 - ratio(b.cpu-a.cpu+b.idle-a.idle, avail, 1)
}

// window is one stretch of a phase, from its start, with the share of
// the CPUs the host took during it.
type window struct {
	from, to time.Duration
	stolen   float64
}

// windows cuts a phase into windows of k CPU-sample intervals each, or
// one window when the phase is shorter. The closing sample, taken as
// the phase ends just after the last tick, joins the last interval.
func (p *phaseResult) windows(k int) []window {
	cpu := p.cpu
	if n := len(cpu); n > 2 && cpu[n-1].at.Sub(cpu[n-2].at) < time.Second/2 {
		cpu = append(cpu[:n-2:n-2], cpu[n-1])
	}
	start := cpu[0].at
	cut := func(a, b cpuSample) window {
		return window{from: a.at.Sub(start), to: b.at.Sub(start), stolen: stolen(a, b)}
	}
	var ws []window
	for i := 0; i+k < len(cpu); i += k {
		ws = append(ws, cut(cpu[i], cpu[i+k]))
	}
	if len(ws) == 0 {
		ws = append(ws, cut(cpu[0], cpu[len(cpu)-1]))
	}
	return ws
}

// quietest returns the indexes of the half of the windows (rounded up)
// in which the host took the least of the process's CPUs. A shared
// 2-vCPU virtual machine loses a few to twenty percent of its CPUs to
// other tenants in bursts lasting seconds, and a burst slows every
// request more than its share; the program's own idle time, waits and
// syscalls do not count as taken.
func quietest(stolen []float64) []int {
	idx := make([]int, len(stolen))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return stolen[idx[a]] < stolen[idx[b]] })
	idx = idx[:(len(idx)+1)/2]
	sort.Ints(idx)
	return idx
}

// split groups samples by the window their time falls in; those past
// the last window count in it.
func split(samples, at []time.Duration, ws []window) [][]time.Duration {
	out := make([][]time.Duration, len(ws))
	for i, t := range at {
		j := min(sort.Search(len(ws), func(j int) bool { return ws[j].to > t }), len(ws)-1)
		out[j] = append(out[j], samples[i])
	}
	return out
}

// bench is the service under test with the inputs driving it.
type bench struct {
	w    workload
	seed uint64
	in   *inputs
	srv  *server
	ck   checker
	next int // live_ingest: next live body to send
}

// readOnce sends req on c and checks the answer.
func (b *bench) readOnce(ctx context.Context, c *client, req *request) (time.Duration, error) {
	t0 := time.Now()
	err := c.do(ctx, "POST", req.path, req.body)
	lat := time.Since(t0)
	if err == nil {
		err = b.ck.check(req, &c.ans)
	}
	return lat, err
}

// warmUp sends every pooled read once, so every lazily built state
// (connections, merge caches, pools) exists before the clock starts.
func (b *bench) warmUp(ctx context.Context) tally {
	c := newClient(b.srv.url)
	defer c.close()
	var t tally
	for _, req := range b.in.pool {
		_, err := b.readOnce(ctx, c, req)
		t.record(err)
	}
	return t
}

// phase drives the workload for d: two closed-loop readers on
// point_read and bulk_read; on live_ingest one paced writer and one
// closed-loop reader. A non-nil tracer replays sampled requests.
func (b *bench) phase(ctx context.Context, d time.Duration, tr *tracer) phaseResult {
	var parts [2]phaseResult
	var wg sync.WaitGroup
	before := b.srv.svc.MergeBuilds()
	rt0 := readRuntime()
	start := time.Now()
	end := start.Add(d)
	cpu := []cpuSample{sampleCPU()}
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				cpu = append(cpu, sampleCPU())
			case <-stop:
				return
			}
		}
	}()
	for w := range parts {
		wg.Add(1)
		go func(w int, res *phaseResult) {
			defer wg.Done()
			c := newClient(b.srv.url)
			defer c.close()
			if b.w.live && w == 0 {
				b.writeLoop(ctx, c, end, tr, res)
				return
			}
			b.readLoop(ctx, c, w*len(b.in.pool)/2, start, end, tr, res)
		}(w, &parts[w])
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	out := phaseResult{elapsed: time.Since(start), cpu: append(cpu, sampleCPU())}
	out.rt = readRuntime().sub(rt0)
	after := b.srv.svc.MergeBuilds()
	out.merges = service.MergeBuilds{
		CountSketch: after.CountSketch - before.CountSketch,
		MisraGries:  after.MisraGries - before.MisraGries,
		Decayed:     after.Decayed - before.Decayed,
		Mine:        after.Mine - before.Mine,
	}
	for _, p := range parts {
		out.add(p.tally)
		out.reads = append(out.reads, p.reads...)
		out.readAt = append(out.readAt, p.readAt...)
		out.acks = append(out.acks, p.acks...)
		out.ackAt = append(out.ackAt, p.ackAt...)
		out.lags = append(out.lags, p.lags...)
		out.rowsAcked += p.rowsAcked
		for k, n := range p.kinds {
			out.kinds[k] += n
		}
	}
	return out
}

func (b *bench) readLoop(ctx context.Context, c *client, off int, start, end time.Time, tr *tracer, res *phaseResult) {
	for i := off; ctx.Err() == nil && time.Now().Before(end); i++ {
		req := b.in.pool[i%len(b.in.pool)]
		var merges service.MergeBuilds
		if tr != nil {
			merges = b.srv.svc.MergeBuilds()
		}
		tr.enter()
		t0 := time.Now()
		lat, err := b.readOnce(ctx, c, req)
		tr.leave()
		res.record(err)
		res.readAt = append(res.readAt, time.Since(start))
		if err != nil {
			res.reads = append(res.reads, failedLatency)
			continue
		}
		res.reads = append(res.reads, lat)
		res.kinds[req.kind]++
		if tr != nil && tr.sampleRead() {
			missed := b.srv.svc.MergeBuilds() != merges
			res.record(tr.replayRead(ctx, req, t0, lat, missed, &c.ans))
		}
	}
}

// writeLoop posts live ingest batches open loop: batch i is due at
// start + i·interval whatever happened to earlier batches.
func (b *bench) writeLoop(ctx context.Context, c *client, end time.Time, tr *tracer, res *phaseResult) {
	sch := schedule{start: time.Now(), interval: liveBatchRows * time.Second / liveRowsPerSec}
	timer := time.NewTimer(0)
	defer timer.Stop()
	for i := 0; ctx.Err() == nil; i++ {
		due := sch.due(i)
		if !due.Before(end) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return
			}
		}
		j := b.next % len(b.in.liveBodies)
		b.next++
		tr.enter()
		sent := time.Now()
		err := c.do(ctx, "POST", "/v1/ingest", b.in.liveBodies[j])
		acked := time.Now()
		tr.leave()
		if want := len(b.in.liveRows[j]); err == nil && c.ans.Accepted != want {
			err = fmt.Errorf("ingest: %d of %d rows accepted", c.ans.Accepted, want)
		}
		res.record(err)
		res.lags = append(res.lags, sch.lag(i, sent))
		res.ackAt = append(res.ackAt, due.Sub(sch.start))
		if err != nil {
			res.acks = append(res.acks, failedLatency)
			continue
		}
		res.acks = append(res.acks, sch.ackLatency(i, acked))
		res.rowsAcked += int64(c.ans.Accepted)
		if tr != nil && tr.sampleIngest() {
			res.record(tr.replayIngest(ctx, j, sent, acked.Sub(sent)))
		}
	}
}

// checkSeen compares the /healthz sum of rows seen with the rows acked.
func (b *bench) checkSeen(ctx context.Context, acked int64) error {
	c := newClient(b.srv.url)
	defer c.close()
	if err := c.do(ctx, "GET", "/healthz", nil); err != nil {
		return err
	}
	var seen int64
	for _, r := range c.ans.Report {
		seen += r.Seen
	}
	if seen != acked {
		return fmt.Errorf("healthz: shards saw %d rows, %d were acked", seen, acked)
	}
	return nil
}

// runtimeDelta is what the Go runtime did during a phase.
type runtimeDelta struct {
	gcCPU, totalCPU float64 // CPU seconds
	allocBytes      float64
	pauseP99        time.Duration
}

type runtimeSample struct {
	gcCPU, totalCPU, allocBytes float64
	pauses                      *metrics.Float64Histogram
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: float64(s[2].Value.Uint64()),
		pauses:     s[3].Value.Float64Histogram(),
	}
}

// sub returns the change from a to s.
func (s runtimeSample) sub(a runtimeSample) runtimeDelta {
	d := runtimeDelta{gcCPU: s.gcCPU - a.gcCPU, totalCPU: s.totalCPU - a.totalCPU, allocBytes: s.allocBytes - a.allocBytes}
	counts := make([]uint64, len(s.pauses.Counts))
	var total uint64
	for i := range counts {
		counts[i] = s.pauses.Counts[i] - a.pauses.Counts[i]
		total += counts[i]
	}
	// The p99 pause is the upper edge of the bucket holding it.
	var cum uint64
	for i, n := range counts {
		cum += n
		if total > 0 && float64(cum) >= 0.99*float64(total) {
			if up := s.pauses.Buckets[i+1]; !math.IsInf(up, 1) {
				d.pauseP99 = time.Duration(up * float64(time.Second))
			} else {
				d.pauseP99 = time.Duration(s.pauses.Buckets[i] * float64(time.Second))
			}
			break
		}
	}
	return d
}
