package service

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	itemsketch "repro"
)

// windowConfig returns testConfig plus a small sliding window: 512 rows
// per shard in 8 buckets, with the decayed heavy-hitter path enabled.
func windowConfig(d int) Config {
	cfg := testConfig(d)
	cfg.Window = &WindowConfig{Rows: 512, Buckets: 8, SampleCapacity: 128, DecayK: 16}
	return cfg
}

// repeatRows returns n copies of the given row.
func repeatRows(n int, row ...int) [][]int {
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = row
	}
	return rows
}

func TestWindowConfigValidation(t *testing.T) {
	cfg := testConfig(4)
	cfg.Window = &WindowConfig{} // Rows missing
	if _, err := New(cfg); !errors.Is(err, itemsketch.ErrInvalidParams) {
		t.Fatalf("New with Rows = 0 window: err = %v, want ErrInvalidParams", err)
	}
	// The normalized window config must never leak back into the
	// caller's struct.
	wc := WindowConfig{Rows: 10}
	cfg.Window = &wc
	s := mustNew(t, cfg)
	if !s.WindowEnabled() {
		t.Fatal("WindowEnabled() = false on a windowed service")
	}
	if wc.Buckets != 0 || wc.Rows != 10 {
		t.Fatalf("New mutated the caller's WindowConfig: %+v", wc)
	}
}

// TestWindowEstimateTracksShift is the headline behavior: after the
// stream's distribution shifts, the window estimate follows the recent
// rows while the whole-stream estimate still reflects the blend.
func TestWindowEstimateTracksShift(t *testing.T) {
	const d = 8
	s := mustNew(t, windowConfig(d))
	ctx := context.Background()
	// Phase A: every row is {0}. Phase B: every row is {1}. Each of the
	// 4 shards sees 1000 B rows — far past its 512-row window, so every
	// live bucket is pure B by the end.
	if _, err := s.Ingest(ctx, repeatRows(6000, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(ctx, repeatRows(4000, 1)); err != nil {
		t.Fatal(err)
	}
	ts := []itemsketch.Itemset{itemsketch.MustItemset(0), itemsketch.MustItemset(1)}

	win, p, err := s.EstimateWindow(ctx, ts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Degraded() {
		t.Fatalf("healthy service reported partial %v", p)
	}
	if win[0] > 0.001 || win[1] < 0.999 {
		t.Errorf("window estimates = %v, want ≈ [0, 1] after the shift", win)
	}

	whole, _, err := s.Estimate(ctx, ts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(whole[0]-0.6) > 0.05 || math.Abs(whole[1]-0.4) > 0.05 {
		t.Errorf("whole-stream estimates = %v, want ≈ [0.6, 0.4]", whole)
	}
}

// TestWindowHeavyHittersRecent pins the decayed heavy-hitter contrast:
// the whole-stream summary still ranks the old majority item, the
// windowed one only the recent item.
func TestWindowHeavyHittersRecent(t *testing.T) {
	const d = 8
	s := mustNew(t, windowConfig(d))
	ctx := context.Background()
	if _, err := s.Ingest(ctx, repeatRows(6000, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(ctx, repeatRows(4000, 1)); err != nil {
		t.Fatal(err)
	}

	items, n, _, err := s.HeavyHitters(ctx, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10000 || len(items) != 1 || items[0].Item != 0 {
		t.Fatalf("whole-stream HeavyHitters = (%v, %d), want item 0 of 10000", items, n)
	}

	wItems, wn, _, err := s.HeavyHittersWindow(ctx, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(wItems) != 1 || wItems[0].Item != 1 {
		t.Fatalf("window HeavyHitters = %v, want exactly item 1", wItems)
	}
	if wn <= 0 || wItems[0].Count <= 0 {
		t.Fatalf("window HeavyHitters mass = (%d of %d), want positive decayed counts", wItems[0].Count, wn)
	}

	if _, _, _, err := s.HeavyHittersWindow(ctx, 1.5); !errors.Is(err, itemsketch.ErrInvalidParams) {
		t.Fatalf("phi = 1.5: err = %v, want ErrInvalidParams", err)
	}
}

func TestWindowNotConfigured(t *testing.T) {
	ctx := context.Background()
	s := mustNew(t, testConfig(4))
	if s.WindowEnabled() {
		t.Fatal("WindowEnabled() = true without Config.Window")
	}
	ts := []itemsketch.Itemset{itemsketch.MustItemset(0)}
	if _, _, err := s.EstimateWindow(ctx, ts); !errors.Is(err, ErrNoWindow) {
		t.Fatalf("EstimateWindow: err = %v, want ErrNoWindow", err)
	}
	if _, _, _, err := s.HeavyHittersWindow(ctx, 0.5); !errors.Is(err, ErrNoWindow) {
		t.Fatalf("HeavyHittersWindow: err = %v, want ErrNoWindow", err)
	}

	// A window with the decayed path disabled answers estimates but not
	// heavy hitters.
	cfg := windowConfig(4)
	cfg.Window.DecayK = -1
	sw := mustNew(t, cfg)
	if _, err := sw.Ingest(ctx, repeatRows(100, 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sw.EstimateWindow(ctx, ts); err != nil {
		t.Fatalf("EstimateWindow with DecayK < 0: %v", err)
	}
	if _, _, _, err := sw.HeavyHittersWindow(ctx, 0.5); !errors.Is(err, ErrNoWindow) {
		t.Fatalf("HeavyHittersWindow with DecayK < 0: err = %v, want ErrNoWindow", err)
	}
}

func TestHTTPWindowFlag(t *testing.T) {
	const d = 6
	s := mustNew(t, windowConfig(d))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	if _, err := s.Ingest(context.Background(), repeatRows(3000, 1)); err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, srv.URL, "/v1/estimate", `{"itemsets":[[1]],"window":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("window estimate: %d %v", resp.StatusCode, body)
	}
	if body["window"] != true {
		t.Fatalf("window estimate body %v, want window:true echoed", body)
	}
	if est := body["estimates"].([]any)[0].(float64); est < 0.999 {
		t.Fatalf("window estimate for the only column = %v, want ≈ 1", est)
	}

	resp, body = postJSON(t, srv.URL, "/v1/heavyhitters", `{"phi":0.5,"window":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("window heavyhitters: %d %v", resp.StatusCode, body)
	}
	if body["source"] != "decayed-misra-gries" {
		t.Fatalf("window heavyhitters source = %v, want decayed-misra-gries", body["source"])
	}

	// The same requests against an unwindowed service are a config
	// conflict, not a 4xx validation failure or a 5xx.
	plain := mustNew(t, testConfig(d))
	psrv := httptest.NewServer(plain.Handler())
	defer psrv.Close()
	resp, body = postJSON(t, psrv.URL, "/v1/estimate", `{"itemsets":[[1]],"window":true}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("window estimate without window: %d %v, want 409", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, psrv.URL, "/v1/heavyhitters", `{"phi":0.5,"window":true}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("window heavyhitters without window: %d, want 409", resp.StatusCode)
	}
}

// estimateBits runs an estimate function and returns the raw float bits,
// so round-trip comparisons are exact rather than within-epsilon.
func estimateBits(t *testing.T, f func(context.Context, []itemsketch.Itemset) ([]float64, Partial, error),
	ts []itemsketch.Itemset) []uint64 {
	t.Helper()
	ests, _, err := f(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	bits := make([]uint64, len(ests))
	for i, e := range ests {
		bits[i] = math.Float64bits(e)
	}
	return bits
}

// TestWindowCheckpointRoundTrip pins the window kinds' checkpoint
// sections: close a windowed service, reopen it onto the same
// directory, and the whole-stream and window query surfaces answer
// bit-identically.
func TestWindowCheckpointRoundTrip(t *testing.T) {
	const d = 8
	dir := t.TempDir()
	cfg := windowConfig(d)
	cfg.CheckpointDir = dir
	ts := []itemsketch.Itemset{
		itemsketch.MustItemset(0), itemsketch.MustItemset(1), itemsketch.MustItemset(0, 1),
	}

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Ingest(ctx, genRows(3000, d, 11)); err != nil {
		t.Fatal(err)
	}
	wantWhole := estimateBits(t, s.Estimate, ts)
	wantWin := estimateBits(t, s.EstimateWindow, ts)
	wantHeavy, wantN, _, err := s.HeavyHittersWindow(ctx, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustNew(t, cfg)
	for _, h := range r.HealthReport() {
		if h.State != Healthy.String() {
			t.Fatalf("shard %d recovered %v: %s", h.ID, h.State, h.LastError)
		}
	}
	gotWhole := estimateBits(t, r.Estimate, ts)
	gotWin := estimateBits(t, r.EstimateWindow, ts)
	for i := range ts {
		if gotWhole[i] != wantWhole[i] {
			t.Errorf("whole-stream estimate %d: %x != %x after recovery", i, gotWhole[i], wantWhole[i])
		}
		if gotWin[i] != wantWin[i] {
			t.Errorf("window estimate %d: %x != %x after recovery", i, gotWin[i], wantWin[i])
		}
	}
	gotHeavy, gotN, _, err := r.HeavyHittersWindow(ctx, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if gotN != wantN || len(gotHeavy) != len(wantHeavy) {
		t.Fatalf("window heavy hitters (%v, %d) != (%v, %d) after recovery", gotHeavy, gotN, wantHeavy, wantN)
	}
	for i := range wantHeavy {
		if gotHeavy[i] != wantHeavy[i] {
			t.Errorf("window heavy hitter %d: %+v != %+v after recovery", i, gotHeavy[i], wantHeavy[i])
		}
	}
}

// TestWindowCheckpointV2BackCompat: a checkpoint written without the
// window kinds (the state a service gains a window from) loads into a
// windowed service — the whole-stream state recovers, the window starts
// empty.
func TestWindowCheckpointV2BackCompat(t *testing.T) {
	const d = 6
	dir := t.TempDir()
	cfg := testConfig(d)
	cfg.CheckpointDir = dir
	ts := []itemsketch.Itemset{itemsketch.MustItemset(0), itemsketch.MustItemset(d - 1)}

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Ingest(ctx, genRows(2000, d, 13)); err != nil {
		t.Fatal(err)
	}
	wantWhole := estimateBits(t, s.Estimate, ts)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	wcfg := windowConfig(d)
	wcfg.CheckpointDir = dir
	wcfg.StrictRecovery = true // any decode trouble must fail loudly here
	r, err := New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	gotWhole := estimateBits(t, r.Estimate, ts)
	for i := range ts {
		if gotWhole[i] != wantWhole[i] {
			t.Errorf("whole-stream estimate %d: %x != %x across the v2 upgrade", i, gotWhole[i], wantWhole[i])
		}
	}
	// The window starts empty: every shard answers, nothing is in any
	// window yet, so estimates are zero.
	win, p, err := r.EstimateWindow(ctx, ts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Degraded() {
		t.Fatalf("v2 upgrade left the service partial: %v", p)
	}
	for i, e := range win {
		if e != 0 {
			t.Errorf("window estimate %d = %v from an empty window, want 0", i, e)
		}
	}
}

// TestWindowCheckpointGeometryMismatch: a checkpoint whose window
// sketch was built under a different geometry must be rejected, not
// silently adopted.
func TestWindowCheckpointGeometryMismatch(t *testing.T) {
	const d = 6
	dir := t.TempDir()
	cfg := windowConfig(d)
	cfg.CheckpointDir = dir
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(context.Background(), genRows(1000, d, 17)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	bad := cfg
	bad.Window = &WindowConfig{Rows: 1024, Buckets: 8, SampleCapacity: 128, DecayK: 16}
	bad.StrictRecovery = true
	if _, err := New(bad); !errors.Is(err, itemsketch.ErrCorruptSketch) {
		t.Fatalf("New with mismatched window geometry: err = %v, want ErrCorruptSketch", err)
	}
}
