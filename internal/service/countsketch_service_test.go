package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	itemsketch "repro"
	"repro/internal/countsketch"
	"repro/internal/rng"
)

// csTestConfig is testConfig with the count-sketch heavy-hitter path
// enabled (small geometry — the statistical guarantees are the
// countsketch package's property suite's job; here we prove wiring).
func csTestConfig(d int) Config {
	cfg := testConfig(d)
	cfg.CountSketch = &countsketch.Config{Rows: 5, Cols: 128, Base: 4}
	return cfg
}

// skewedRows generates rows where low attributes dominate — attribute a
// appears with probability ~1/(a+2), so 0 and 1 are clear heavy
// hitters of the attribute occurrence stream.
func skewedRows(n, d int, seed uint64) [][]int {
	r := rng.New(seed)
	rows := make([][]int, n)
	for i := range rows {
		var row []int
		for a := 0; a < d; a++ {
			if r.Float64() < 1/float64(a+2) {
				row = append(row, a)
			}
		}
		rows[i] = row
	}
	return rows
}

// TestCountSketchServiceMergeMatchesSingleStream is the mergeability
// contract at the service level: the cross-shard merged count sketch
// answers exactly like one sketch that ingested every row itself —
// sharding is invisible to the heavy-hitter query.
func TestCountSketchServiceMergeMatchesSingleStream(t *testing.T) {
	const d = 10
	cfg := csTestConfig(d)
	s := mustNew(t, cfg)
	rows := skewedRows(4000, d, 31)
	if _, err := s.Ingest(context.Background(), rows); err != nil {
		t.Fatal(err)
	}

	// All shards must share the hash seed, or nothing below works.
	refCfg := s.Shard(0).kinds.countSketch().Config()
	for i := 1; i < s.NumShards(); i++ {
		if got := s.Shard(i).kinds.countSketch().Config(); got != refCfg {
			t.Fatalf("shard %d count-sketch config %+v differs from shard 0's %+v", i, got, refCfg)
		}
	}

	ref, err := countsketch.New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		for _, a := range row {
			ref.Add(a)
		}
	}

	hits, n, p, err := s.HeavyHitters(context.Background(), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if p.Degraded() {
		t.Fatalf("healthy service answered degraded: %v", p)
	}
	if n != ref.Total() {
		t.Fatalf("merged total %d, single-stream total %d", n, ref.Total())
	}
	want := ref.HeavyHitters(0.15)
	if len(hits) != len(want) {
		t.Fatalf("service hits %v, single-stream %v", hits, want)
	}
	for i := range want {
		if hits[i].Item != want[i].Item || hits[i].Count != want[i].Count {
			t.Fatalf("hit %d: service %+v, single-stream %+v", i, hits[i], want[i])
		}
	}
	if len(hits) == 0 || hits[0].Item != 0 {
		t.Fatalf("attribute 0 dominates the skewed stream but hits = %v", hits)
	}
	if got := s.HeavyHitterSource(); got != "count-sketch" {
		t.Fatalf("HeavyHitterSource = %q", got)
	}
}

// TestCountSketchCheckpointKillRecover is the satellite acceptance
// path: ingest → checkpoint → kill (abandon without Close) →
// StrictRecovery restart → bit-exact heavy hitters and totals.
func TestCountSketchCheckpointKillRecover(t *testing.T) {
	const d = 8
	dir := t.TempDir()
	cfg := csTestConfig(d)
	cfg.CheckpointDir = dir
	ctx := context.Background()

	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Ingest(ctx, skewedRows(2500, d, 77)); err != nil {
		t.Fatal(err)
	}
	if err := first.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wantHits, wantN, _, err := first.HeavyHitters(ctx, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	wantEsts, _, err := first.Estimate(ctx, []itemsketch.Itemset{itemsketch.MustItemset(0), itemsketch.MustItemset(d - 1)})
	if err != nil {
		t.Fatal(err)
	}
	// Simulated kill: the service is abandoned, never Closed — only the
	// explicit checkpoint above survives.

	cfg.StrictRecovery = true
	second := mustNew(t, cfg)
	gotHits, gotN, p, err := second.HeavyHitters(ctx, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Degraded() {
		t.Fatalf("recovered service degraded: %v", p)
	}
	if gotN != wantN {
		t.Fatalf("recovered total %d, want %d (count sketch must survive bit-exact)", gotN, wantN)
	}
	if len(gotHits) != len(wantHits) {
		t.Fatalf("recovered hits %v, want %v", gotHits, wantHits)
	}
	for i := range wantHits {
		if gotHits[i] != wantHits[i] {
			t.Fatalf("hit %d: recovered %+v, want %+v", i, gotHits[i], wantHits[i])
		}
	}
	gotEsts, _, err := second.Estimate(ctx, []itemsketch.Itemset{itemsketch.MustItemset(0), itemsketch.MustItemset(d - 1)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantEsts {
		if gotEsts[i] != wantEsts[i] {
			t.Fatalf("estimate %d: recovered %v, want %v", i, gotEsts[i], wantEsts[i])
		}
	}
	// The recovered sketches keep streaming and stay mergeable.
	if _, err := second.Ingest(ctx, skewedRows(200, d, 78)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := second.HeavyHitters(ctx, 0.2); err != nil {
		t.Fatal(err)
	}
	first.Close()
}

// csCheckpointImage checkpoints a one-shard count-sketch service and
// returns the raw image (count-sketch section included) plus the
// expected sketch config.
func csCheckpointImage(t *testing.T, dir string) ([]byte, countsketch.Config) {
	t.Helper()
	cfg := csTestConfig(6)
	cfg.Shards = 1
	cfg.SampleCapacity = 64
	cfg.CheckpointDir = dir
	s := mustNew(t, cfg)
	if _, err := s.Ingest(context.Background(), skewedRows(400, 6, 11)); err != nil {
		t.Fatal(err)
	}
	if err := s.Shard(0).Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := s.Shard(0).kinds.countSketch().Config()
	raw, err := os.ReadFile(filepath.Join(dir, "shard-0.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return raw, want
}

// TestCountSketchCheckpointTruncationAndMismatch extends the
// kill-at-every-offset acceptance property to an image carrying a
// count-sketch section, and pins the config-mismatch
// rejections: a checkpointed sketch never restarts onto different
// hashes, and a sketch-bearing image is refused by a sketch-less
// config.
func TestCountSketchCheckpointTruncationAndMismatch(t *testing.T) {
	raw, want := csCheckpointImage(t, t.TempDir())
	for off := 0; off < len(raw); off++ {
		_, _, err := readCheckpoint(bytes.NewReader(raw[:off]), 0, 6, kindsFor(t, 6, 64, &want))
		if err == nil {
			t.Fatalf("offset %d/%d: truncated count-sketch checkpoint decoded without error", off, len(raw))
		}
		if !errors.Is(err, itemsketch.ErrTruncatedStream) {
			t.Fatalf("offset %d/%d: %v does not wrap ErrTruncatedStream", off, len(raw), err)
		}
	}
	if _, _, err := readCheckpoint(bytes.NewReader(raw), 0, 6, kindsFor(t, 6, 64, &want)); err != nil {
		t.Fatalf("full count-sketch image failed to recover: %v", err)
	}

	// Same bytes, config without a count sketch: corrupt, not silent.
	if _, _, err := readCheckpoint(bytes.NewReader(raw), 0, 6, kindsFor(t, 6, 64, nil)); !errors.Is(err, itemsketch.ErrCorruptSketch) {
		t.Fatalf("sketch-bearing image with sketch-less config: %v, want ErrCorruptSketch", err)
	}
	// Same bytes, different expected geometry or seed: corrupt.
	for _, mutate := range []func(*countsketch.Config){
		func(c *countsketch.Config) { c.Cols *= 2 },
		func(c *countsketch.Config) { c.Seed ^= 1 },
	} {
		other := want
		mutate(&other)
		if _, _, err := readCheckpoint(bytes.NewReader(raw), 0, 6, kindsFor(t, 6, 64, &other)); !errors.Is(err, itemsketch.ErrCorruptSketch) {
			t.Fatalf("mismatched config %+v: %v, want ErrCorruptSketch", other, err)
		}
	}

	// An image without a count-sketch section still reads under a
	// count-sketch expectation, starting the sketch empty.
	v1, _ := checkpointImage(t, t.TempDir())
	_, kinds, err := readCheckpoint(bytes.NewReader(v1), 0, 6, kindsFor(t, 6, 64, &want))
	if err != nil {
		t.Fatalf("reader rejected a sketch-less image: %v", err)
	}
	if kinds.countSketch() != nil {
		t.Fatal("sketch-less image recovered a count sketch")
	}
}

// TestCountSketchHTTPDegradation drives /v1/heavyhitters over HTTP
// with a killed shard: the response must stay 200, name the dead shard
// in X-Shards-Answered/X-Shards-Missing, and carry the count-sketch
// source marker.
func TestCountSketchHTTPDegradation(t *testing.T) {
	const d = 8
	s := mustNew(t, csTestConfig(d))
	if _, err := s.Ingest(context.Background(), skewedRows(2000, d, 55)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, body := postJSON(t, srv.URL, "/v1/heavyhitters", `{"phi":0.2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heavyhitters: %d %v", resp.StatusCode, body)
	}
	if body["source"] != "count-sketch" {
		t.Fatalf("source = %v, want count-sketch", body["source"])
	}
	if got := resp.Header.Get("X-Shards-Answered"); got != "4/4" {
		t.Fatalf("X-Shards-Answered %q, want 4/4", got)
	}
	fullItems := body["items"].([]any)
	if len(fullItems) == 0 {
		t.Fatal("no heavy hitters over a skewed stream")
	}

	s.KillShard(2)
	resp, body = postJSON(t, srv.URL, "/v1/heavyhitters", `{"phi":0.2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded heavyhitters: %d %v", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Shards-Answered"); got != "3/4" {
		t.Fatalf("degraded X-Shards-Answered %q, want 3/4", got)
	}
	if got := resp.Header.Get("X-Shards-Missing"); got != "2" {
		t.Fatalf("degraded X-Shards-Missing %q, want 2", got)
	}
	shards := body["shards"].(map[string]any)
	if shards["answered"].(float64) != 3 || shards["total"].(float64) != 4 {
		t.Fatalf("degraded body shards %v", shards)
	}
	if len(body["items"].([]any)) == 0 {
		t.Fatal("degraded response lost all heavy hitters")
	}

	// Fully dead: 503 that still reports the degradation state.
	for i := 0; i < s.NumShards(); i++ {
		s.KillShard(i)
	}
	resp, body = postJSON(t, srv.URL, "/v1/heavyhitters", `{"phi":0.2}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-dead heavyhitters: %d, want 503", resp.StatusCode)
	}
	if body["shards"] == nil || !strings.Contains(body["error"].(string), "no shards") {
		t.Fatalf("all-dead body %v", body)
	}
}

// itemsOf collects a hit list's item set for containment checks.
func itemsOf(hits []HeavyHitter) map[int]bool {
	set := make(map[int]bool, len(hits))
	for _, h := range hits {
		set[h.Item] = true
	}
	return set
}

// TestCountSketchVsMisraGriesSources runs the same stream through a
// count-sketch service and an MG-only service: both heavy-hitter paths
// must surface the dominant attribute, and the source marker must
// distinguish them.
func TestCountSketchVsMisraGriesSources(t *testing.T) {
	const d = 10
	rows := skewedRows(3000, d, 99)
	ctx := context.Background()

	csSvc := mustNew(t, csTestConfig(d))
	mgSvc := mustNew(t, testConfig(d))
	if mgSvc.HeavyHitterSource() != "misra-gries" {
		t.Fatalf("MG service source = %q", mgSvc.HeavyHitterSource())
	}
	for _, s := range []*Service{csSvc, mgSvc} {
		if _, err := s.Ingest(ctx, rows); err != nil {
			t.Fatal(err)
		}
	}
	csHits, _, _, err := csSvc.HeavyHitters(ctx, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	mgHits, _, _, err := mgSvc.HeavyHitters(ctx, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !itemsOf(csHits)[0] || !itemsOf(mgHits)[0] {
		t.Fatalf("dominant attribute 0 missing: count-sketch %v, misra-gries %v", csHits, mgHits)
	}
	// JSON shape: the HeavyHitter rows marshal identically either way.
	if _, err := json.Marshal(csHits); err != nil {
		t.Fatal(err)
	}
}

// TestCountSketchMergeCache pins the read-side memoization: repeated
// heavy-hitter queries against an unchanged service reuse one merged
// sketch (and agree exactly), any ingest invalidates the generation,
// and killing a shard changes the key rather than serving stale shards.
func TestCountSketchMergeCache(t *testing.T) {
	const d = 10
	ctx := context.Background()
	s := mustNew(t, csTestConfig(d))
	if _, err := s.Ingest(ctx, skewedRows(2000, d, 5)); err != nil {
		t.Fatal(err)
	}

	first, n1, _, err := s.HeavyHitters(ctx, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	base := s.csMerge.builds.Load()
	if base == 0 {
		t.Fatal("first query did not build a merge")
	}
	for i := 0; i < 10; i++ {
		again, n2, p, err := s.HeavyHitters(ctx, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if p.Degraded() {
			t.Fatalf("cached query reported partial %v", p)
		}
		if n2 != n1 || len(again) != len(first) {
			t.Fatalf("cached answer (%v, %d) != first (%v, %d)", again, n2, first, n1)
		}
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("cached hitter %d: %+v != %+v", j, again[j], first[j])
			}
		}
	}
	if got := s.csMerge.builds.Load(); got != base {
		t.Fatalf("10 repeat queries rebuilt the merge %d times", got-base)
	}

	// Ingest republishes snapshots: the next query must re-merge.
	if _, err := s.Ingest(ctx, skewedRows(100, d, 6)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.HeavyHitters(ctx, 0.2); err != nil {
		t.Fatal(err)
	}
	if got := s.csMerge.builds.Load(); got != base+1 {
		t.Fatalf("post-ingest query built %d merges, want exactly 1 more", got-base)
	}

	// A dead shard shrinks the candidate set: re-merge, and the cached
	// generation must answer 3/4 afterwards, not resurrect the corpse.
	s.KillShard(2)
	after := s.csMerge.builds.Load()
	for i := 0; i < 3; i++ {
		_, _, p, err := s.HeavyHitters(ctx, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if p.Answered != 3 || len(p.Missing) != 1 || p.Missing[0] != 2 {
			t.Fatalf("post-kill partial %v, want 3/4 missing shard 2", p)
		}
	}
	if got := s.csMerge.builds.Load(); got != after+1 {
		t.Fatalf("post-kill queries built %d merges, want exactly 1", got-after)
	}
}

// BenchmarkHeavyHittersHot measures the steady-state heavy-hitter
// query against an unchanged service — the S1 target: the per-query
// cost is the dyadic descent only, the cross-shard merge is memoized
// away. Run with -benchtime against BenchmarkHeavyHittersCold to see
// the re-merge cost that used to sit on this path.
func BenchmarkHeavyHittersHot(b *testing.B) {
	s := benchCSService(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := s.HeavyHitters(ctx, 0.2); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if merges := s.csMerge.builds.Load(); merges > 1 {
		b.Fatalf("hot path re-merged %d times for %d queries", merges, b.N)
	}
}

// BenchmarkHeavyHittersCold forces a merge rebuild per query by
// clearing the cached generation — the pre-memoization behavior.
func BenchmarkHeavyHittersCold(b *testing.B) {
	s := benchCSService(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.csMerge.gen.Store(nil)
		if _, _, _, err := s.HeavyHitters(ctx, 0.2); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCSService(b *testing.B) *Service {
	const d = 12
	cfg := csTestConfig(d)
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	if _, err := s.Ingest(context.Background(), skewedRows(5000, d, 7)); err != nil {
		b.Fatal(err)
	}
	return s
}

// TestCountSketchServiceBuildsNoWholeStreamSummary: with the count
// sketch answering heavy hitters no route reads a whole-stream
// Misra–Gries summary, so no shard holds one — live or in its snapshot
// — and no checkpoint carries one.
func TestCountSketchServiceBuildsNoWholeStreamSummary(t *testing.T) {
	const d = 6
	cfg := csTestConfig(d)
	cfg.CheckpointDir = t.TempDir()
	s := mustNew(t, cfg)
	if _, err := s.Ingest(context.Background(), skewedRows(800, d, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := s.Shard(0).kinds.countSketch().Config()
	for i := 0; i < s.NumShards(); i++ {
		sh := s.Shard(i)
		if sh.kinds.heavy() != nil || sh.snapshot().kinds.heavy() != nil {
			t.Fatalf("shard %d holds a whole-stream summary beside its count sketch", i)
		}
		raw, err := os.ReadFile(filepath.Join(cfg.CheckpointDir, fmt.Sprintf("shard-%d.ckpt", i)))
		if err != nil {
			t.Fatal(err)
		}
		// Expect both kinds, so the reader reports what the file carries.
		_, kinds, err := readCheckpoint(bytes.NewReader(raw), i, d, kindsFor(t, d, 64, &want))
		if err != nil {
			t.Fatal(err)
		}
		if kinds.heavy() != nil {
			t.Fatalf("shard %d checkpoint carries a whole-stream summary section", i)
		}
		if kinds.countSketch() == nil {
			t.Fatalf("shard %d checkpoint lost its count sketch", i)
		}
	}
}
