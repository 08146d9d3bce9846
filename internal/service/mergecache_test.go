package service

import (
	"context"
	"reflect"
	"sync"
	"testing"

	itemsketch "repro"
)

// windowedConfig is testConfig(d) plus a sliding window with the
// decayed heavy-hitter path enabled — the config that exercises every
// merge-cache path at once.
func windowedConfig(d int) Config {
	cfg := testConfig(d)
	cfg.Window = &WindowConfig{Rows: 256, DecayK: 8}
	return cfg
}

// TestMisraGriesMergeCache mirrors TestCountSketchMergeCache for the
// MG read path: repeated heavy-hitter queries against an unchanged
// service reuse one merged summary (and agree exactly), ingest
// invalidates the generation, and killing a shard changes the key
// rather than serving stale shards.
func TestMisraGriesMergeCache(t *testing.T) {
	const d = 10
	ctx := context.Background()
	s := mustNew(t, testConfig(d))
	if _, err := s.Ingest(ctx, skewedRows(2000, d, 5)); err != nil {
		t.Fatal(err)
	}

	first, n1, _, err := s.HeavyHitters(ctx, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	base := s.mgMerge.builds.Load()
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
		if n2 != n1 || !reflect.DeepEqual(again, first) {
			t.Fatalf("cached answer (%v, %d) != first (%v, %d)", again, n2, first, n1)
		}
	}
	if got := s.mgMerge.builds.Load(); got != base {
		t.Fatalf("10 repeat queries rebuilt the merge %d times", got-base)
	}

	// Cached ≡ uncached: clearing the generation forces a fresh fold
	// over the same snapshots, which must agree bit-for-bit (MergeMG is
	// deterministic).
	s.mgMerge.gen.Store(nil)
	uncached, n3, _, err := s.HeavyHitters(ctx, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if n3 != n1 || !reflect.DeepEqual(uncached, first) {
		t.Fatalf("uncached rebuild (%v, %d) != cached (%v, %d)", uncached, n3, first, n1)
	}
	base = s.mgMerge.builds.Load()

	// Ingest republishes snapshots: the next query must re-merge.
	if _, err := s.Ingest(ctx, skewedRows(100, d, 6)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.HeavyHitters(ctx, 0.2); err != nil {
		t.Fatal(err)
	}
	if got := s.mgMerge.builds.Load(); got != base+1 {
		t.Fatalf("post-ingest query built %d merges, want exactly 1 more", got-base)
	}

	// A dead shard shrinks the candidate set: one re-merge, then the
	// cached generation answers 3/4 without resurrecting the corpse.
	s.KillShard(2)
	after := s.mgMerge.builds.Load()
	for i := 0; i < 3; i++ {
		_, _, p, err := s.HeavyHitters(ctx, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if p.Answered != 3 || len(p.Missing) != 1 || p.Missing[0] != 2 {
			t.Fatalf("post-kill partial %v, want 3/4 missing shard 2", p)
		}
	}
	if got := s.mgMerge.builds.Load(); got != after+1 {
		t.Fatalf("post-kill queries built %d merges, want exactly 1", got-after)
	}
}

// TestDecayedMergeCache is the same contract for the windowed
// (decayed Misra–Gries) heavy-hitter path.
func TestDecayedMergeCache(t *testing.T) {
	const d = 10
	ctx := context.Background()
	s := mustNew(t, windowedConfig(d))
	if _, err := s.Ingest(ctx, skewedRows(2000, d, 5)); err != nil {
		t.Fatal(err)
	}

	first, n1, _, err := s.HeavyHittersWindow(ctx, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	base := s.dmgMerge.builds.Load()
	if base == 0 {
		t.Fatal("first query did not build a merge")
	}
	for i := 0; i < 10; i++ {
		again, n2, p, err := s.HeavyHittersWindow(ctx, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if p.Degraded() {
			t.Fatalf("cached query reported partial %v", p)
		}
		if n2 != n1 || !reflect.DeepEqual(again, first) {
			t.Fatalf("cached answer (%v, %d) != first (%v, %d)", again, n2, first, n1)
		}
	}
	if got := s.dmgMerge.builds.Load(); got != base {
		t.Fatalf("10 repeat queries rebuilt the merge %d times", got-base)
	}

	// Cached ≡ uncached: MergeDecayed is deterministic over the same
	// snapshots.
	s.dmgMerge.gen.Store(nil)
	uncached, n3, _, err := s.HeavyHittersWindow(ctx, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if n3 != n1 || !reflect.DeepEqual(uncached, first) {
		t.Fatalf("uncached rebuild (%v, %d) != cached (%v, %d)", uncached, n3, first, n1)
	}
	base = s.dmgMerge.builds.Load()

	if _, err := s.Ingest(ctx, skewedRows(100, d, 6)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.HeavyHittersWindow(ctx, 0.2); err != nil {
		t.Fatal(err)
	}
	if got := s.dmgMerge.builds.Load(); got != base+1 {
		t.Fatalf("post-ingest query built %d merges, want exactly 1 more", got-base)
	}

	s.KillShard(1)
	after := s.dmgMerge.builds.Load()
	for i := 0; i < 3; i++ {
		_, _, p, err := s.HeavyHittersWindow(ctx, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if p.Answered != 3 || len(p.Missing) != 1 || p.Missing[0] != 1 {
			t.Fatalf("post-kill partial %v, want 3/4 missing shard 1", p)
		}
	}
	if got := s.dmgMerge.builds.Load(); got != after+1 {
		t.Fatalf("post-kill queries built %d merges, want exactly 1", got-after)
	}
}

// minedAttrs projects mining results to their attribute sets, for
// comparisons that should ignore sampling noise in the frequencies.
func minedAttrs(rs []itemsketch.MiningResult) map[string]bool {
	out := make(map[string]bool, len(rs))
	for _, r := range rs {
		key := ""
		for _, a := range r.Items.Attrs() {
			key += string(rune('A' + a))
		}
		out[key] = true
	}
	return out
}

// TestMineMergeCache pins the Mine fix: the union sample used to be
// re-merged (with a fresh seed) on every request, making repeated
// mines both slow and nondeterministic. With the generation cache,
// repeated calls against an unchanged service reuse one merged sample
// — and therefore return identical results — while ingest and kills
// invalidate exactly one generation at a time.
func TestMineMergeCache(t *testing.T) {
	const d = 10
	ctx := context.Background()
	s := mustNew(t, testConfig(d))
	if _, err := s.Ingest(ctx, skewedRows(3000, d, 5)); err != nil {
		t.Fatal(err)
	}

	first, _, err := s.Mine(ctx, 0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("mine over skewed rows found nothing at support 0.3")
	}
	base := s.mineMerge.builds.Load()
	if base == 0 {
		t.Fatal("first mine did not build a merge")
	}
	for i := 0; i < 5; i++ {
		again, p, err := s.Mine(ctx, 0.3, 2)
		if err != nil {
			t.Fatal(err)
		}
		if p.Degraded() {
			t.Fatalf("cached mine reported partial %v", p)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("cached mine %v != first %v — the per-request re-merge is back", again, first)
		}
	}
	if got := s.mineMerge.builds.Load(); got != base {
		t.Fatalf("5 repeat mines rebuilt the union sample %d times", got-base)
	}

	// Uncached rebuild draws fresh merge seeds, so the union sample is
	// a different uniform draw — the frequent-itemset *set* must agree
	// even though frequencies may wiggle within the sampling bounds.
	s.mineMerge.gen.Store(nil)
	uncached, _, err := s.Mine(ctx, 0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(minedAttrs(uncached), minedAttrs(first)) {
		t.Fatalf("uncached mine found %v, cached found %v", minedAttrs(uncached), minedAttrs(first))
	}
	base = s.mineMerge.builds.Load()

	// Ingest invalidates.
	if _, err := s.Ingest(ctx, skewedRows(100, d, 6)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Mine(ctx, 0.3, 2); err != nil {
		t.Fatal(err)
	}
	if got := s.mineMerge.builds.Load(); got != base+1 {
		t.Fatalf("post-ingest mine built %d merges, want exactly 1 more", got-base)
	}

	// Kill invalidates, once, and the partial reports the corpse.
	s.KillShard(3)
	after := s.mineMerge.builds.Load()
	for i := 0; i < 3; i++ {
		_, p, err := s.Mine(ctx, 0.3, 2)
		if err != nil {
			t.Fatal(err)
		}
		if p.Answered != 3 || len(p.Missing) != 1 || p.Missing[0] != 3 {
			t.Fatalf("post-kill partial %v, want 3/4 missing shard 3", p)
		}
	}
	if got := s.mineMerge.builds.Load(); got != after+1 {
		t.Fatalf("post-kill mines built %d merges, want exactly 1", got-after)
	}
}

// TestMergeCachesAcrossStrictRecovery pins the recovery leg of the
// invalidation contract: a service restarted from checkpoints under
// StrictRecovery rebuilds each merge exactly once, and — because
// checkpoints restore the summaries and samples exactly, and the merge
// seed sequence restarts with the service — the restored answers are
// bit-identical to the pre-restart ones.
func TestMergeCachesAcrossStrictRecovery(t *testing.T) {
	const d = 10
	ctx := context.Background()
	cfg := windowedConfig(d)
	cfg.CheckpointDir = t.TempDir()
	s := mustNew(t, cfg)
	if _, err := s.Ingest(ctx, skewedRows(2500, d, 5)); err != nil {
		t.Fatal(err)
	}

	// Record each path's first-build answer. Mine is recorded before
	// any other mine call so it consumes the service's first merge
	// seeds — the same ones the restarted service will draw.
	mineWant, _, err := s.Mine(ctx, 0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	mgWant, mgN, _, err := s.HeavyHitters(ctx, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	dmgWant, dmgN, _, err := s.HeavyHittersWindow(ctx, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.StrictRecovery = true
	s2 := mustNew(t, cfg)
	mineGot, p, err := s2.Mine(ctx, 0.3, 2)
	if err != nil || p.Degraded() {
		t.Fatalf("post-recovery mine: (%v, %v)", p, err)
	}
	if !reflect.DeepEqual(mineGot, mineWant) {
		t.Errorf("post-recovery mine %v != pre-restart %v", mineGot, mineWant)
	}
	mgGot, mgN2, _, err := s2.HeavyHitters(ctx, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if mgN2 != mgN || !reflect.DeepEqual(mgGot, mgWant) {
		t.Errorf("post-recovery heavy hitters (%v, %d) != pre-restart (%v, %d)", mgGot, mgN2, mgWant, mgN)
	}
	dmgGot, dmgN2, _, err := s2.HeavyHittersWindow(ctx, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if dmgN2 != dmgN || !reflect.DeepEqual(dmgGot, dmgWant) {
		t.Errorf("post-recovery windowed hitters (%v, %d) != pre-restart (%v, %d)", dmgGot, dmgN2, dmgWant, dmgN)
	}

	// Exactly one build per path on the restarted service, and repeats
	// stay cached.
	for i := 0; i < 3; i++ {
		if _, _, err := s2.Mine(ctx, 0.3, 2); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := s2.HeavyHitters(ctx, 0.2); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := s2.HeavyHittersWindow(ctx, 0.2); err != nil {
			t.Fatal(err)
		}
	}
	mb := s2.MergeBuilds()
	if mb.Mine != 1 || mb.MisraGries != 1 || mb.Decayed != 1 {
		t.Errorf("post-recovery builds %+v, want exactly one per path", mb)
	}
}

// TestHotReadPathsBuildNoMerges is the hot-path invariant under
// concurrency: once ingest is quiesced and one warming round has built
// each merge, concurrent repeats of every merged read path — heavy
// hitters, mine and windowed heavy hitters — are all cache hits, on
// both heavy-hitter sources. Run it under -race: the repeats share one
// memoized generation per path.
func TestHotReadPathsBuildNoMerges(t *testing.T) {
	const d, workers, repeats = 10, 8, 8
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"misra-gries", windowedConfig(d)},
		{"count-sketch", func() Config {
			cfg := windowedConfig(d)
			cfg.CountSketch = csTestConfig(d).CountSketch
			return cfg
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := mustNew(t, tc.cfg)
			// Concurrent ingest first, so every shard's snapshot moves.
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					if _, err := s.Ingest(ctx, skewedRows(600, d, uint64(20+w))); err != nil {
						t.Error(err)
					}
				}(w)
			}
			wg.Wait()
			paths := []func() error{
				func() error { _, _, _, err := s.HeavyHitters(ctx, 0.2); return err },
				func() error { _, _, err := s.Mine(ctx, 0.3, 2); return err },
				func() error { _, _, _, err := s.HeavyHittersWindow(ctx, 0.2); return err },
			}
			for _, call := range paths { // the warming round builds each merge once
				if err := call(); err != nil {
					t.Fatal(err)
				}
			}
			before := s.MergeBuilds()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < repeats; i++ {
						for _, call := range paths {
							if err := call(); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			if after := s.MergeBuilds(); after != before {
				t.Fatalf("%d×%d hot repeats rebuilt merges: builds %+v → %+v", workers, repeats, before, after)
			}
		})
	}
}
