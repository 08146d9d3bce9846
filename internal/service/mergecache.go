package service

import (
	"context"
	"sync/atomic"
)

// mergeGen is one memoized generation of a read-side cross-shard
// merge. It stays valid exactly as long as every answering shard still
// publishes the snapshot it was built from — any ingest, kill or
// recovery swaps a snapshot pointer and misses the cache. The merged
// value is immutable once stored: queries only read it, so one
// generation can serve concurrent calls.
type mergeGen[T any] struct {
	ids      []int       // shard ids of the candidates
	snaps    []*snapshot // key: the candidate snapshots, in shard order
	answered []int       // shards whose state actually merged
	merged   T
}

// matches reports whether the generation was built from exactly these
// candidate snapshots.
func (g *mergeGen[T]) matches(ids []int, snaps []*snapshot) bool {
	if len(g.snaps) != len(snaps) {
		return false
	}
	for i := range snaps {
		if g.ids[i] != ids[i] || g.snaps[i] != snaps[i] {
			return false
		}
	}
	return true
}

// mergeCache memoizes one estimator's cross-shard merge per snapshot
// generation behind an atomic pointer. Every read path that combines
// shard summaries — count sketch, Misra–Gries, decayed Misra–Gries,
// and the Mine union sample — owns one, so repeated queries against an
// unchanged service reuse the previous merge instead of re-folding
// every shard per request.
type mergeCache[T any] struct {
	gen    atomic.Pointer[mergeGen[T]]
	builds atomic.Int64 // cache misses: actual merge builds
}

// get returns the memoized merge for exactly these candidate
// snapshots, or runs build and publishes the result as the new
// generation. build's answered slice is passed through even on error
// (a ctx cancellation mid-fold) so callers can report the partial; an
// errored build is never stored.
func (c *mergeCache[T]) get(ids []int, snaps []*snapshot, build func() (T, []int, error)) (T, []int, error) {
	if g := c.gen.Load(); g != nil && g.matches(ids, snaps) {
		return g.merged, g.answered, nil
	}
	c.builds.Add(1)
	merged, answered, err := build()
	if err != nil {
		var zero T
		return zero, answered, err
	}
	c.gen.Store(&mergeGen[T]{ids: ids, snaps: snaps, answered: answered, merged: merged})
	return merged, answered, nil
}

// mergeCandidates collects the live shards whose snapshot passes keep,
// in shard order — the identity key for one generation of a read-side
// merge.
func (s *Service) mergeCandidates(keep func(*snapshot) bool) (ids []int, snaps []*snapshot, shs []*Shard) {
	live := s.live()
	ids = make([]int, 0, len(live))
	snaps = make([]*snapshot, 0, len(live))
	shs = make([]*Shard, 0, len(live))
	for _, sh := range live {
		snap := sh.snapshot()
		if !keep(snap) {
			continue
		}
		ids = append(ids, sh.id)
		snaps = append(snaps, snap)
		shs = append(shs, sh)
	}
	return ids, snaps, shs
}

// MergeBuilds counts the read-side cross-shard merges actually built
// since start, per estimator path. The hot-path invariant — what the
// merge-cache tests count — is that repeated queries against an
// unchanged service add zero to these.
type MergeBuilds struct {
	CountSketch int64
	MisraGries  int64
	Decayed     int64
	Mine        int64
}

// mergeRead answers one read-side cross-shard merge through cache. The
// candidates are the live shards whose snapshot holds the summary pick
// selects. On a cache miss merge folds their summaries in shard order —
// it receives the zero accumulator with the first shard's summary, and
// must not modify a snapshot's own — skipping (and recording) any shard
// whose merge fails; finish turns the fold into the cached value. Zero
// answering shards is ErrNoShards, or ctx.Err() when the deadline
// caused it.
func mergeRead[S, T comparable](ctx context.Context, s *Service, cache *mergeCache[T],
	pick func(*snapshot) S, merge func(acc, next S) (S, error), finish func(S) T) (T, Partial, error) {
	var none S
	var zero T
	ids, snaps, shs := s.mergeCandidates(func(sn *snapshot) bool { return pick(sn) != none })
	merged, answered, err := cache.get(ids, snaps, func() (T, []int, error) {
		acc := none
		var ans []int
		for i, snap := range snaps {
			if err := ctx.Err(); err != nil {
				return zero, ans, err
			}
			m, err := merge(acc, pick(snap))
			if err != nil {
				shs[i].recordFailure(err)
				continue
			}
			acc = m
			ans = append(ans, ids[i])
		}
		if acc == none {
			return zero, ans, nil
		}
		return finish(acc), ans, nil
	})
	if err == nil && merged == zero {
		err = noAnswer(ctx)
	}
	return merged, s.partialFor(answered), err
}

// same is the finish step of a merge whose fold is the cached value.
func same[T any](v T) T { return v }

// MergeBuilds reports the per-path merge-build counters.
func (s *Service) MergeBuilds() MergeBuilds {
	return MergeBuilds{
		CountSketch: s.csMerge.builds.Load(),
		MisraGries:  s.mgMerge.builds.Load(),
		Decayed:     s.dmgMerge.builds.Load(),
		Mine:        s.mineMerge.builds.Load(),
	}
}
