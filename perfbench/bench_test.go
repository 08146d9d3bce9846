package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	itemsketch "repro"
	"repro/internal/dataset"
)

func TestRowGenDeterministicPerSeed(t *testing.T) {
	draw := func(seed uint64) ([]uint64, []string) {
		g := newRowGen(seed)
		rows := make([]uint64, 500)
		for i := range rows {
			rows[i] = g.row()
		}
		var bodies []string
		for _, req := range readPool(workloads[0], g) {
			bodies = append(bodies, string(req.body))
		}
		return rows, bodies
	}
	r1, b1 := draw(7)
	r2, b2 := draw(7)
	if !slices.Equal(r1, r2) || !slices.Equal(b1, b2) {
		t.Fatal("the same seed drew different inputs")
	}
	r3, _ := draw(8)
	if slices.Equal(r1, r3) {
		t.Fatal("different seeds drew the same rows")
	}
}

func TestRowGenPlantsItemset(t *testing.T) {
	g := newRowGen(3)
	if popcount(g.plant) != 3 {
		t.Fatalf("planted %d attributes, want 3", popcount(g.plant))
	}
	n, planted := 20000, 0
	for i := 0; i < n; i++ {
		if g.row()&g.plant == g.plant {
			planted++
		}
	}
	if f := float64(planted) / float64(n); f < plantFreq-0.02 {
		t.Fatalf("planted itemset in %.3f of rows, want at least %.2f", f, plantFreq)
	}
}

func TestEncodings(t *testing.T) {
	if got := string(appendRows(nil, []uint64{0b101, 0, 1 << 63})); got != `{"rows":[[0,2],[],[63]]}` {
		t.Fatalf("appendRows = %s", got)
	}
	sets := []dataset.Itemset{dataset.MustItemset(1, 4), dataset.MustItemset(7)}
	if got := string(estimateBody(sets, true)); got != `{"itemsets":[[1,4],[7]],"window":true}` {
		t.Fatalf("estimateBody = %s", got)
	}
	var v map[string]any
	for _, req := range readPool(workloads[2], newRowGen(1)) {
		if err := json.Unmarshal(req.body, &v); err != nil {
			t.Fatalf("%s body %s: %v", kindNames[req.kind], req.body, err)
		}
	}
}

func TestReadMixShares(t *testing.T) {
	var n [numKinds]int
	pool := readPool(workloads[2], newRowGen(5))
	for _, req := range pool {
		n[req.kind]++
	}
	want := [numKinds]float64{0.70, 0.10, 0.10, 0.05, 0.05}
	for k, share := range want {
		if got := float64(n[k]) / float64(len(pool)); math.Abs(got-share) > 0.03 {
			t.Errorf("%s share %.3f, want %.2f", kindNames[k], got, share)
		}
	}
	for _, req := range readPool(workloads[1], newRowGen(5)) {
		if req.kind != kindEstimate || len(req.sets) != 256 {
			t.Fatalf("bulk_read request of kind %s with %d itemsets", kindNames[req.kind], len(req.sets))
		}
	}
}

func TestPercentileAndRatios(t *testing.T) {
	xs := make([]time.Duration, 100)
	for i := range xs {
		xs[i] = time.Duration(100-i) * time.Millisecond
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0.5, 50 * time.Millisecond}, {0.99, 99 * time.Millisecond}, {1, 100 * time.Millisecond}, {0.001, time.Millisecond}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %v, want %v", 100*c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 || percentile([]time.Duration{7}, 0.99) != 7 {
		t.Error("percentile of no or one sample")
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 3, 2}) != 2.5 || median(nil) != 0 {
		t.Error("median")
	}
	if ratio(1, 4, -1) != 0.25 || ratio(1, 0, -1) != -1 {
		t.Error("ratio")
	}
	if hitRatio(3, 10) != 0.7 || hitRatio(0, 0) != 1 || hitRatio(0, 5) != 1 {
		t.Error("hitRatio")
	}
	if ms(1500*time.Microsecond) != 1.5 {
		t.Error("ms")
	}
}

func TestScheduleLagAccounting(t *testing.T) {
	start := time.Unix(100, 0)
	s := schedule{start: start, interval: 2 * time.Millisecond}
	if got := s.due(3); !got.Equal(start.Add(6 * time.Millisecond)) {
		t.Fatalf("due(3) = %v", got.Sub(start))
	}
	// Batch 3 sent 1 ms late and acked 4 ms after it was due: the ack
	// latency charges the sender's lateness too.
	if got := s.lag(3, start.Add(7*time.Millisecond)); got != time.Millisecond {
		t.Errorf("lag = %v, want 1ms", got)
	}
	if got := s.ackLatency(3, start.Add(10*time.Millisecond)); got != 4*time.Millisecond {
		t.Errorf("ack latency = %v, want 4ms", got)
	}
	if got := s.lag(0, start); got != 0 {
		t.Errorf("on-time lag = %v", got)
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100, CPU: 200},
		// Three children: two overlap (10–50, 30–70), one stands apart.
		{ID: 2, Parent: 1, Start: 10, End: 50, CPU: 40},
		{ID: 3, Parent: 1, Start: 30, End: 70, CPU: 40},
		{ID: 4, Parent: 1, Start: 80, End: 90, CPU: 10},
		// A grandchild inside child 2.
		{ID: 5, Parent: 2, Start: 15, End: 25, CPU: 10},
	}
	self := selfTimes(spans)
	want := map[int64]selfTime{
		1: {wall: 100 - 70, cpu: 200 - 90},
		2: {wall: 40 - 10, cpu: 30},
		3: {wall: 40, cpu: 40},
		4: {wall: 10, cpu: 10},
		5: {wall: 10, cpu: 10},
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self %+v, want %+v", id, self[id], w)
		}
	}
	for _, c := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{5, 9}}, 4},
		{[][2]int64{{0, 10}, {2, 3}}, 10},             // contained
		{[][2]int64{{20, 30}, {0, 10}, {10, 15}}, 25}, // touching, unsorted
	} {
		if got := unionLen(c.iv); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestRecorderWritesSpans(t *testing.T) {
	r := newRecorder()
	req := r.request()
	root := r.timed(req, 0, "outer", func() { time.Sleep(time.Millisecond) })
	inner := r.timed(req, root, "inner", func() { time.Sleep(time.Millisecond) })
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := r.writeSpans(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d spans written, want 2", len(lines))
	}
	var s span
	if err := json.Unmarshal([]byte(lines[1]), &s); err != nil {
		t.Fatal(err)
	}
	if s.ID != inner || s.Name != "inner" || s.Parent != root || s.Req != req || s.dur() < int64(time.Millisecond) {
		t.Fatalf("inner span %+v", s)
	}
}

func TestLemma9EpsInvertsSampleSize(t *testing.T) {
	for _, c := range []struct{ s, k int }{{32768, 2}, {32768, 3}, {262144, 4}, {14336, 3}} {
		eps := lemma9Eps(c.s, numAttrs, c.k, delta)
		p := itemsketch.Params{K: c.k, Eps: eps, Delta: delta, Mode: itemsketch.ForAll, Task: itemsketch.Estimator}
		if got := itemsketch.SampleSize(numAttrs, p); got < c.s || got > c.s+1 {
			t.Errorf("SampleSize at ε(%d rows, k=%d) = %d", c.s, c.k, got)
		}
	}
	if eps := lemma9Eps(262144, numAttrs, 3, delta); eps > 0.0053 || eps < 0.005 {
		t.Errorf("bulk_read ε = %.5f, want ≈ 0.005", eps)
	}
}

func TestCheckerFlagsWrongAnswers(t *testing.T) {
	ck := checker{w: workloads[0], plant: []int{3, 9, 20}}
	est := &request{kind: kindEstimate, sets: []dataset.Itemset{dataset.MustItemset(1, 2)}, truth: []float64{0.25}}
	if err := ck.check(est, &answer{Estimates: []float64{0.26}}); err != nil {
		t.Errorf("estimate within ε rejected: %v", err)
	}
	if err := ck.check(est, &answer{Estimates: []float64{0.5}}); err == nil {
		t.Error("estimate off by 0.25 accepted")
	}
	if err := ck.check(est, &answer{}); err == nil {
		t.Error("missing estimate accepted")
	}
	heavy := &request{kind: kindHeavy}
	if err := ck.check(heavy, &answer{Items: []heavyItem{{3}, {9}, {20}, {1}}}); err != nil {
		t.Errorf("heavy hitters with every planted item rejected: %v", err)
	}
	if err := ck.check(heavy, &answer{Items: []heavyItem{{3}, {9}}}); err == nil {
		t.Error("heavy hitters missing a planted item accepted")
	}
	mine := &request{kind: kindMine}
	if err := ck.check(mine, &answer{Results: []minedSet{{[]int{3}}, {[]int{3, 9, 20}}}}); err != nil {
		t.Errorf("mine with the planted itemset rejected: %v", err)
	}
	if err := ck.check(mine, &answer{Results: []minedSet{{[]int{3, 9}}}}); err == nil {
		t.Error("mine without the planted itemset accepted")
	}
}

func TestRecombineMatchesWeightedMean(t *testing.T) {
	reps := []replica{{seen: 1}, {seen: 3}, {seen: 0}}
	got := recombine([][]float64{{0.5, 1}, {0.1, 0}, {0.9, 0.9}}, reps)
	want := []float64{(0.5 + 3*0.1) / 4, 0.25}
	if !sameBits(got, want) {
		t.Fatalf("recombine = %v, want %v", got, want)
	}
	if sameBits([]float64{0}, []float64{math.Copysign(0, -1)}) || sameBits([]float64{1}, nil) {
		t.Fatal("sameBits equates different bits")
	}
}

// TestEndToEndTiny runs the whole pipeline at tiny sizes: load over
// HTTP, a short closed-loop phase with every answer checked, the
// healthz and fidelity checks, and a traced phase whose replays must
// reconcile.
func TestEndToEndTiny(t *testing.T) {
	for _, w := range []workload{{name: "point_read", capacity: 512}, {name: "bulk_read", capacity: 1024, bulk: true}} {
		t.Run(w.name, func(t *testing.T) {
			ctx := context.Background()
			in := generate(w, 11, 16*loadBatchRows, 0)
			b := &bench{w: w, seed: 11, in: in, ck: checker{w: w, plant: in.plant}}
			var err error
			if b.srv, err = startServer(w.config(11, "")); err != nil {
				t.Fatal(err)
			}
			defer b.srv.close()
			lr := load(ctx, b.srv.url, in.loadBodies, loadBatchRows)
			if lr.failed != 0 || lr.rows != int64(16*loadBatchRows) {
				t.Fatalf("load: %d rows, %d failed: %v", lr.rows, lr.failed, lr.firstErr)
			}
			if warm := b.warmUp(ctx); warm.failed != 0 {
				t.Fatalf("warm-up: %v", warm.firstErr)
			}
			ph := b.phase(ctx, 100*time.Millisecond, nil)
			if ph.failed != 0 || len(ph.reads) == 0 {
				t.Fatalf("phase: %d reads, %d failed: %v", len(ph.reads), ph.failed, ph.firstErr)
			}
			if err := b.checkSeen(ctx, lr.rows); err != nil {
				t.Fatal(err)
			}
			if err := b.checkFidelity(ctx); err != nil {
				t.Fatal(err)
			}
			tr, err := newTracer(ctx, b, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer tr.close()
			traced := b.phase(ctx, 200*time.Millisecond, tr)
			if traced.failed != 0 {
				t.Fatalf("traced phase: %v", traced.firstErr)
			}
			var log bytes.Buffer
			m := tr.metrics(ph, traced, &log)
			for _, name := range []string{"http.read_transport_ms", "bitvec.kernel_ms", "bitvec.kernel_calls"} {
				if m[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0\n%s", name, m[name].Value, log.String())
				}
			}
			if m["service.merge_hit_ratio.mine"].Value != 1 || m["stream.apply_ms"].Value != 0 {
				t.Errorf("a read-only workload rebuilt merges or ingested:\n%s", log.String())
			}
		})
	}
}

func TestQuietWindowsAndSplit(t *testing.T) {
	t0 := time.Unix(0, 0)
	procs := float64(runtime.GOMAXPROCS(0))
	// One second in which the process used or idled all its CPUs, then
	// one in which a fifth of them went elsewhere.
	a := cpuSample{at: t0}
	b := cpuSample{at: t0.Add(time.Second), cpu: 0.9 * procs, idle: 0.1 * procs}
	c := cpuSample{at: t0.Add(2 * time.Second), cpu: 1.6 * procs, idle: 0.2 * procs}
	if got := stolen(a, b); math.Abs(got) > 1e-9 {
		t.Errorf("stolen from a fully used second = %v", got)
	}
	if got := stolen(b, c); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("stolen = %v, want 0.2", got)
	}
	p := phaseResult{cpu: []cpuSample{a, b, c}}
	ws := p.windows(1)
	if len(ws) != 2 || ws[1].from != time.Second || ws[1].to != 2*time.Second {
		t.Fatalf("windows = %+v", ws)
	}
	if one := p.windows(5); len(one) != 1 || one[0].to != 2*time.Second {
		t.Fatalf("a phase shorter than the window gives %+v", one)
	}
	if got := quietest([]float64{0.01, 0.3, 0.05, 0.2}); !slices.Equal(got, []int{0, 2}) {
		t.Errorf("quietest = %v", got)
	}
	if got := quietest([]float64{0.2, 0.3, 0.05}); !slices.Equal(got, []int{0, 2}) {
		t.Errorf("quietest of three = %v", got)
	}
	// The closing sample just after the last tick joins the last window.
	d := cpuSample{at: t0.Add(2*time.Second + time.Millisecond), cpu: 1.6 * procs, idle: 0.2 * procs}
	if tail := (&phaseResult{cpu: []cpuSample{a, b, c, d}}).windows(1); len(tail) != 2 || tail[1].to != d.at.Sub(t0) {
		t.Errorf("closing sample made windows %+v", tail)
	}
	lat := []time.Duration{1, 2, 3, 4}
	at := []time.Duration{0, 999 * time.Millisecond, time.Second, 3 * time.Second}
	parts := split(lat, at, ws)
	if !slices.Equal(parts[0], []time.Duration{1, 2}) || !slices.Equal(parts[1], []time.Duration{3, 4}) {
		t.Errorf("split = %v", parts)
	}
}
