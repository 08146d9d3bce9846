package main

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"syscall"
)

// readServiceSpans are the Service read methods a replayed read calls;
// their self time is the service's own work around the fan-out and the
// merge caches.
var readServiceSpans = map[string]bool{
	"service.estimate": true, "service.estimate_window": true, "service.heavy_hitters": true,
	"service.heavy_hitters_window": true, "service.mine": true,
}

// wallLayers are the layers on a request's blocking path, reported in
// wall time: the transport (round trip − in-process handler), the
// handler (its JSON work around the Service method), and the Service
// read methods' own work (fan-out, merge caches, combining). The
// layers below report CPU: their replays run alone, or pinned to one
// thread in the fan-out, so their CPU is exactly their work.
var wallLayers = map[string]bool{"request.read": true, "request.ingest": true, "service.handler": true, "service.read": true}

// layerSums is the self time of every layer over the sampled requests
// of one class (reads or ingest batches).
type layerSums struct {
	n       int                 // sampled requests
	rt      int64               // their summed round trips, ns
	self    map[string]selfTime // layer → summed self time
	calls   map[string]int      // layer → spans
	handler int64               // summed CPU of the in-process handler replays
}

// mean is the layer's self time per sampled request, in ms: wall time
// on the blocking path, CPU below it.
func (l *layerSums) mean(layer string) float64 {
	v := l.self[layer].cpu
	if wallLayers[layer] {
		v = l.self[layer].wall
	}
	return ratio(float64(v)/1e6, float64(l.n), 0)
}

// metrics computes the per-layer metrics from the untraced and traced
// phases and the recorded spans, and prints the reconciliation.
func (t *tracer) metrics(untraced, traced phaseResult, log io.Writer) map[string]metric {
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()
	self := selfTimes(spans)
	class := map[int64]string{} // request id → "read" or "ingest"
	for _, s := range spans {
		if s.Parent == 0 && strings.HasPrefix(s.Name, "request.") {
			class[s.Req] = strings.TrimPrefix(s.Name, "request.")
		}
	}
	sums := map[string]*layerSums{}
	for _, c := range []string{"read", "ingest"} {
		sums[c] = &layerSums{self: map[string]selfTime{}, calls: map[string]int{}}
	}
	for _, s := range spans {
		l := sums[class[s.Req]]
		if s.Parent == 0 && strings.HasPrefix(s.Name, "request.") {
			l.n++
			l.rt += s.dur()
		}
		name := s.Name
		if readServiceSpans[name] {
			name = "service.read"
		}
		if name == "service.handler" {
			l.handler += s.CPU
		}
		st := l.self[name]
		st.wall += self[s.ID].wall
		st.cpu += self[s.ID].cpu
		l.self[name] = st
		l.calls[name]++
	}
	rd, in := sums["read"], sums["ingest"]
	m := map[string]metric{}
	add := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	add("http.read_transport_ms", "ms", rd.mean("request.read"))
	add("http.ingest_transport_ms", "ms", in.mean("request.ingest"))
	add("service.handler.read_ms", "ms", rd.mean("service.handler"))
	add("service.handler.ingest_ms", "ms", in.mean("service.handler"))
	add("service.fanout_ms", "ms", rd.mean("service.read"))
	add("query.estimate_many_ms", "ms", rd.mean("query.estimate_many"))
	add("dataset.count_ms", "ms", rd.mean("dataset.count"))
	add("dataset.index_build_ms", "ms", rd.mean("dataset.index_build")+in.mean("dataset.index_build"))
	add("bitvec.kernel_ms", "ms", rd.mean("bitvec.kernel"))
	add("bitvec.kernel_calls", "count", ratio(float64(t.kernelCalls.Load()), float64(rd.n), 0))
	add("bitvec.kernel_bytes", "bytes", ratio(float64(t.kernelBytes.Load()), float64(rd.n), 0))
	add("stream.apply_ms", "ms", in.mean("stream.apply"))
	add("stream.merge_ms", "ms", rd.mean("stream.merge"))
	add("stream.window_estimate_ms", "ms", rd.mean("stream.window_estimate"))
	add("countsketch.add_ms", "ms", in.mean("countsketch.add"))
	add("countsketch.merge_ms", "ms", rd.mean("countsketch.merge"))
	add("countsketch.heavy_hitters_ms", "ms", rd.mean("countsketch.heavy_hitters"))
	add("mining.apriori_ms", "ms", rd.mean("mining.apriori"))
	add("service.publish_ms", "ms", in.mean("service.publish"))
	add("service.publish_alloc_bytes", "bytes", t.publishAlloc)
	ckpt := ratio(float64(in.self["service.checkpoint"].cpu)/1e6, float64(t.ckpts), 0)
	ckptWall := ratio(float64(in.self["service.checkpoint"].wall)/1e6, float64(t.ckpts), 0)
	add("service.checkpoint_ms", "ms", ckptWall)
	add("service.checkpoint_bytes", "bytes", ratio(float64(t.ckptBytes), float64(t.ckpts), 0))
	// An ingest batch owes liveBatchRows/checkpointEvery of one shard
	// checkpoint; what Service.Ingest spends beyond that and its
	// replayed parts is unexplained.
	ckptShare := ckpt * liveBatchRows / checkpointEvery
	unexplainedIngest := in.mean("service.ingest") - ckptShare
	add("service.ingest_unexplained_ms", "ms", unexplainedIngest)
	// The service's own CPU beyond every named layer below it, as a share
	// of the CPU the in-process handler replays used.
	unexplained := float64(rd.self["service.read"].cpu)/1e6 + unexplainedIngest*float64(in.n)
	add("reconcile.unexplained_pct", "%", 100*ratio(unexplained, float64(rd.handler+in.handler)/1e6, 0))
	u := untraced
	add("service.merge_hit_ratio.mine", "ratio", hitRatio(u.merges.Mine, u.kinds[kindMine]))
	add("service.merge_hit_ratio.heavy", "ratio", hitRatio(u.merges.CountSketch+u.merges.MisraGries, u.kinds[kindHeavy]))
	add("service.merge_hit_ratio.window", "ratio", hitRatio(u.merges.Decayed, u.kinds[kindWindowHeavy]))
	add("runtime.gc_cpu_fraction", "ratio", ratio(u.rt.gcCPU, u.rt.totalCPU, 0))
	add("runtime.gc_pause_p99_ms", "ms", ms(u.rt.pauseP99))
	add("runtime.alloc_bytes_per_op", "bytes", ratio(u.rt.allocBytes, float64(len(u.reads)+len(u.acks)), 0))
	add("loadgen.schedule_lag_p99_ms", "ms", ms(percentile(u.lags, 0.99)))
	p50u, p50t := ms(percentile(u.reads, 0.5)), ms(percentile(traced.reads, 0.5))
	add("trace.overhead_pct", "%", 100*ratio(p50t-p50u, p50u, 0))

	for _, l := range []struct {
		class string
		sums  *layerSums
	}{{"read", rd}, {"ingest", in}} {
		if l.sums.n == 0 {
			fmt.Fprintf(log, "%s layers: idle, no %s request in the timed phase\n", l.class, l.class)
			continue
		}
		rt := float64(l.sums.rt) / float64(l.sums.n) / 1e6
		fmt.Fprintf(log, "%s layers over %d sampled requests, round trip %.4f ms (wall) / in-process handler %.4f ms (CPU):\n",
			l.class, l.sums.n, rt, float64(l.sums.handler)/float64(l.sums.n)/1e6)
		for _, name := range sortedKeys(l.sums.self) {
			kind := "CPU "
			if wallLayers[name] {
				kind = "wall"
			}
			v := l.sums.mean(name)
			fmt.Fprintf(log, "  %-28s %s self %10.4f ms %6.1f%% of round trip  (%d spans)\n", name, kind, v, 100*v/rt, l.sums.calls[name])
		}
	}
	fmt.Fprintf(log, "unexplained: %.2f%% of the handler CPU; tracing overhead on read p50: %.4f → %.4f ms (%+.1f%%)\n",
		m["reconcile.unexplained_pct"].Value, p50u, p50t, m["trace.overhead_pct"].Value)
	return m
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// fsType names the filesystem holding path, for the run record.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
