// Package service is the network-facing query tier over mergeable
// sketch shards — the serving architecture the paper's O(1)-mergeable
// summaries make possible, built with fault tolerance as the design
// center.
//
// Each shard owns an independent row stream: a worker goroutine
// ingests rows into a streaming Reservoir (the paper's SUBSAMPLE
// sketch built one pass at a time) and a sketch set (sketchset.go)
// holding every other streaming kind the config enables: the
// whole-stream heavy hitters (a Misra–Gries summary, or a count sketch
// when Config.CountSketch is set) and the sliding-window kinds.
// Queries never touch live ingest state; they read immutable snapshots
// (cloned, column-indexed samples) published after every ingest batch,
// fan out per shard through the ctx-aware query.EstimateMany batch
// path, and combine cross-shard on read: frequency estimates by
// seen-weighted averaging (the merged-reservoir expectation), mining
// over a stream.Merge of the shard reservoirs, heavy hitters over the
// summaries' merges.
//
// The robustness model:
//
//   - Shard failures are isolated and degraded, never fatal. Shards
//     carry a health state (Healthy → Degraded → Dead) driven by
//     consecutive-failure counters; queries skip dead shards and
//     report partial results naming who was missing
//     (X-Shards-Answered) instead of failing the request. A dead
//     shard's ingest slot re-homes to the live shards, and a
//     replacement can be bootstrapped from a peer's replication
//     envelope (see rehome.go), so degradation is recoverable.
//   - The read side exploits mergeability instead of repeating it:
//     every cross-shard merge (count sketch, Misra–Gries, decayed
//     Misra–Gries, the Mine union sample) is memoized per snapshot
//     generation (mergecache.go).
//   - Fallible operations — ingest application and checkpoint I/O —
//     run under bounded retry with exponential backoff and seeded
//     jitter.
//   - Checkpoints are crash-safe: a header, the reservoir and every
//     kind of the sketch set stream as registered envelopes through
//     itemsketch.MarshalTo into a temp file that is fsynced and
//     atomically renamed (internal/atomicfile), so a kill at any byte
//     offset leaves the previous checkpoint intact; recovery replays
//     the newest valid checkpoint and reports torn ones cleanly.
//   - Deadlines thread from the HTTP request context into
//     EstimateMany's mid-batch cancellation, so a slow shard costs at
//     most one chunk of work past its budget.
//
// Fault injection hooks (Config.IngestFault and the checkpoint
// read/write wrappers) accept internal/faultio wrappers, which is how
// the chaos tests drive the service through injected short reads, torn
// writes and transient transport errors.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	itemsketch "repro"
	"repro/internal/countsketch"
	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/stream"
)

// Health is a shard's serving state.
type Health int32

// The shard health states: a Healthy shard serves and ingests;
// Degraded marks recent failures (still serving, still retrying);
// Dead shards are excluded from ingest routing and query fan-out.
const (
	Healthy Health = iota
	Degraded
	Dead
)

// String returns the lowercase state name.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Dead:
		return "dead"
	}
	return fmt.Sprintf("health(%d)", int32(h))
}

// Sentinel errors of the service layer. They wrap the public
// itemsketch taxonomy where one applies.
var (
	// ErrNoShards marks a query that no live shard could answer — the
	// fully-degraded case a caller sees as 503.
	ErrNoShards = errors.New("service: no shards answered")
	// ErrShardDead marks an operation addressed to a dead shard.
	ErrShardDead = errors.New("service: shard is dead")
	// ErrRetriesExhausted marks an operation that failed through every
	// backoff attempt.
	ErrRetriesExhausted = errors.New("service: retries exhausted")
	// ErrClosed marks an operation submitted after Close began.
	ErrClosed = errors.New("service: closed")
	// ErrNoWindow marks a window query against a service whose Config
	// has no Window (or, for heavy hitters, a disabled DecayK).
	ErrNoWindow = errors.New("service: sliding window is not configured")
)

// Config parameterizes a Service. The zero value is completed by
// sensible defaults in New; NumAttrs is the only required field.
type Config struct {
	// Shards is the number of independent shards (default 8).
	Shards int
	// NumAttrs is the attribute universe size d (required).
	NumAttrs int
	// SampleCapacity is each shard's reservoir capacity in rows
	// (default 4096).
	SampleCapacity int
	// HeavyK is the counter parameter of the whole-stream Misra–Gries
	// heavy-hitter summary (held as a stream.DecayedMisraGries that
	// never decays); 0 keeps the default 64, negative disables the
	// summary. It has no effect when CountSketch is set: the count
	// sketch then answers heavy hitters and no summary is built.
	HeavyK int
	// CountSketch, when non-nil, gives every shard a hierarchical count
	// sketch (internal/countsketch) instead of the Misra–Gries summary,
	// and switches the heavy-hitter read path to merging those sketches
	// — the O(1) cell-wise merge, rather than MG's counter merge. The
	// service overrides Universe (to NumAttrs) and Seed (every shard
	// must share one hash seed to be mergeable; it is derived from
	// Config.Seed after the per-shard seeds, so enabling the sketch
	// never perturbs existing shard sampling). Geometry fields keep
	// their countsketch defaults when zero.
	CountSketch *countsketch.Config
	// Window, when non-nil, gives every shard a sliding-window view of
	// its stream beside the whole-stream sketches: a WindowedReservoir
	// answering /v1/estimate over the trailing Window.Rows rows, and
	// (unless disabled) a DecayedMisraGries answering /v1/heavyhitters
	// with exponential decay per bucket rotation. Window seeds are drawn
	// after the count-sketch seed, so enabling the window never perturbs
	// what existing shards sample.
	Window *WindowConfig
	// Params are the sketch parameters recorded into checkpoints and
	// replication envelopes (default k=2, ε=δ=0.05, ForAll Estimator).
	Params itemsketch.Params
	// Seed roots all service randomness: per-shard reservoir seeds,
	// retry jitter, merge seeds. The same seed over the same input
	// streams reproduces the same shard samples.
	Seed uint64
	// CheckpointDir enables crash-safe persistence when non-empty:
	// shard i checkpoints to CheckpointDir/shard-<i>.ckpt and New
	// recovers from the files found there.
	CheckpointDir string
	// CheckpointEvery auto-checkpoints a shard after this many
	// ingested rows (0 = only explicit Checkpoint calls).
	CheckpointEvery int
	// RequestTimeout bounds each HTTP request (0 = none). The deadline
	// threads into EstimateMany, cancelling mid-batch.
	RequestTimeout time.Duration
	// MaxRetries bounds the backoff loop for ingest and checkpoint I/O
	// (default 4 attempts).
	MaxRetries int
	// RetryBase and RetryMax bound the exponential backoff with full
	// jitter: sleep ~ U[0, min(RetryMax, RetryBase·2^attempt)]
	// (defaults 2ms and 50ms).
	RetryBase time.Duration
	RetryMax  time.Duration
	// DegradeAfter and DeadAfter are the consecutive-failure
	// thresholds for the health transitions (defaults 1 and 5).
	DegradeAfter int
	DeadAfter    int
	// MinReady is the live-shard quorum /readyz requires (default 1).
	MinReady int

	// IngestFault, when set, is consulted before each ingest
	// application attempt; a non-nil return is treated as a transient
	// storage fault and retried with backoff. Chaos tests inject here.
	IngestFault func(shard, attempt int) error
	// CheckpointWriteWrap / CheckpointReadWrap wrap the checkpoint
	// file streams — the hook the chaos tests use to interpose
	// faultio writers/readers on the persistence path.
	CheckpointWriteWrap func(io.Writer) io.Writer
	CheckpointReadWrap  func(io.Reader) io.Reader
	// Sleep replaces the backoff sleep (tests use a no-op). nil means
	// a context-respecting real sleep.
	Sleep func(time.Duration)
	// StrictRecovery makes New fail on a torn or corrupt checkpoint
	// instead of starting the shard empty and Degraded.
	StrictRecovery bool
}

// WindowConfig parameterizes the per-shard sliding-window sketches.
type WindowConfig struct {
	// Rows is the trailing window length in rows per shard (required;
	// rounded up to a multiple of Buckets).
	Rows int
	// Buckets subdivides the window into rotation epochs (default 8).
	// More buckets track the window edge more precisely at
	// proportionally more space.
	Buckets int
	// SampleCapacity is the per-bucket reservoir capacity (default 256).
	SampleCapacity int
	// DecayK is the decayed Misra–Gries counter budget for the windowed
	// heavy-hitter path; 0 keeps the default 64, negative disables it.
	DecayK int
	// DecayLambda scales the decayed counters at every bucket rotation
	// (default 0.8). Must be in (0, 1].
	DecayLambda float64
}

// withDefaults returns cfg with zero fields filled in.
func (cfg Config) withDefaults() Config {
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.SampleCapacity <= 0 {
		cfg.SampleCapacity = 4096
	}
	if cfg.HeavyK == 0 {
		cfg.HeavyK = 64
	}
	if cfg.Params == (itemsketch.Params{}) {
		cfg.Params = itemsketch.Params{K: 2, Eps: 0.05, Delta: 0.05,
			Mode: itemsketch.ForAll, Task: itemsketch.Estimator}
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 4
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 2 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 50 * time.Millisecond
	}
	if cfg.DegradeAfter <= 0 {
		cfg.DegradeAfter = 1
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 5
	}
	if cfg.MinReady <= 0 {
		cfg.MinReady = 1
	}
	if cfg.Window != nil {
		w := *cfg.Window // never mutate the caller's struct
		if w.Buckets <= 0 {
			w.Buckets = 8
		}
		if w.SampleCapacity <= 0 {
			w.SampleCapacity = 256
		}
		if w.DecayK == 0 {
			w.DecayK = 64
		}
		if w.DecayLambda == 0 {
			w.DecayLambda = 0.8
		}
		if rem := w.Rows % w.Buckets; w.Rows > 0 && rem != 0 {
			w.Rows += w.Buckets - rem
		}
		cfg.Window = &w
	}
	return cfg
}

// Service is a fault-tolerant sharded sketch service. Create with New,
// serve with Handler, stop with Close.
type Service struct {
	cfg     Config
	csCfg   *countsketch.Config // resolved count-sketch config (nil = disabled)
	shards  []*Shard
	next    atomic.Uint64 // round-robin ingest cursor
	mseed   atomic.Uint64 // merge-seed counter
	closed  atomic.Bool
	closeMu sync.RWMutex // write side held while Close closes worker channels
	wg      sync.WaitGroup

	// Read-side merge caches, one generation per estimator path (see
	// mergecache.go): queries against an unchanged service reuse the
	// previous cross-shard merge instead of re-folding every shard.
	csMerge   mergeCache[*countsketch.Sketch]
	mgMerge   mergeCache[*stream.DecayedMisraGries]
	dmgMerge  mergeCache[*stream.DecayedMisraGries]
	mineMerge mergeCache[*dataset.Database]

	routeMu sync.RWMutex
	routing []int // ingest slot table (see rehome.go): slot i is shard i's home
}

// New builds the shard set, recovers any checkpoints found in
// cfg.CheckpointDir, and starts the per-shard ingest workers.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if cfg.NumAttrs < 1 {
		return nil, fmt.Errorf("%w: service needs NumAttrs ≥ 1", itemsketch.ErrInvalidParams)
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Params.K > cfg.NumAttrs {
		return nil, fmt.Errorf("%w: params k = %d exceeds NumAttrs = %d", itemsketch.ErrInvalidParams, cfg.Params.K, cfg.NumAttrs)
	}
	if cfg.Window != nil && cfg.Window.Rows < 1 {
		return nil, fmt.Errorf("%w: window needs Rows ≥ 1, got %d", itemsketch.ErrInvalidParams, cfg.Window.Rows)
	}
	s := &Service{cfg: cfg}
	root := rng.New(cfg.Seed)
	// Shard seeds are drawn before the count-sketch seed so that
	// enabling the count sketch never changes what any shard samples.
	seeds := make([][2]uint64, cfg.Shards)
	for i := range seeds {
		seeds[i] = [2]uint64{root.Uint64(), root.Uint64()}
	}
	if cfg.CountSketch != nil {
		csCfg := *cfg.CountSketch
		csCfg.Universe = cfg.NumAttrs
		csCfg.Seed = root.Uint64()
		s.csCfg = &csCfg
	}
	// Window seeds are drawn after the count-sketch seed: enabling the
	// window must not perturb any earlier bit stream (same discipline as
	// the count sketch relative to the shard seeds).
	winSeeds := make([]uint64, cfg.Shards)
	if cfg.Window != nil {
		for i := range winSeeds {
			winSeeds[i] = root.Uint64()
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		sh, err := newShard(s, i, seeds[i][0], seeds[i][1], winSeeds[i])
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, sh)
	}
	// Every shard starts owning its home slot; Dead transitions (either
	// direction, including recovery below) recompute the table.
	s.routing = make([]int, cfg.Shards)
	for i := range s.routing {
		s.routing[i] = i
	}
	if cfg.CheckpointDir != "" {
		if err := s.recoverAll(); err != nil {
			return nil, err
		}
	}
	for _, sh := range s.shards {
		s.wg.Add(1)
		go sh.run()
	}
	return s, nil
}

// Close stops the ingest workers, takes a best-effort final checkpoint
// of every live shard when persistence is enabled, and returns the
// first checkpoint error.
func (s *Service) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	// The write lock excludes every in-flight submit send, so no worker
	// channel is closed under a pending send (submit checks closed and
	// returns ErrClosed once we hold it).
	s.closeMu.Lock()
	for _, sh := range s.shards {
		close(sh.ch)
	}
	s.closeMu.Unlock()
	s.wg.Wait()
	return s.Checkpoint()
}

// NumShards returns the configured shard count.
func (s *Service) NumShards() int { return len(s.shards) }

// Shard returns shard i, for tests and the admin surface.
func (s *Service) Shard(i int) *Shard { return s.shards[i] }

// KillShard marks shard i Dead: it stops receiving ingest routing and
// is excluded from query fan-out. This is the chaos lever — the
// degraded-operation tests kill shards through it.
func (s *Service) KillShard(i int) {
	if i >= 0 && i < len(s.shards) {
		s.shards[i].setState(Dead)
	}
}

// live returns the shards currently eligible for routing and fan-out
// (everything not Dead).
func (s *Service) live() []*Shard {
	out := make([]*Shard, 0, len(s.shards))
	for _, sh := range s.shards {
		if sh.State() != Dead {
			out = append(out, sh)
		}
	}
	return out
}

// Partial reports which shards contributed to a response. Total counts
// every configured shard; Missing lists the ids (dead, failed, or out
// of deadline) that did not answer.
type Partial struct {
	Answered int   `json:"answered"`
	Total    int   `json:"total"`
	Missing  []int `json:"missing,omitempty"`
}

// Degraded reports whether any shard was missing from the response.
func (p Partial) Degraded() bool { return p.Answered < p.Total }

// String formats as the X-Shards-Answered header value ("7/8").
func (p Partial) String() string { return fmt.Sprintf("%d/%d", p.Answered, p.Total) }

// partialFor builds the Partial for the shards that answered, listed
// by id.
func (s *Service) partialFor(answered []int) Partial {
	p := Partial{Total: len(s.shards)}
	for _, sh := range s.shards {
		if slices.Contains(answered, sh.id) {
			p.Answered++
		} else {
			p.Missing = append(p.Missing, sh.id)
		}
	}
	return p
}

// Ingest validates and routes rows (attribute-index lists) across the
// shard slots round-robin, in per-shard batches applied by the shard
// workers under retry. Rows are partitioned over every slot — a dead
// shard's slot is re-homed to a live shard by the routing table (see
// rehome.go) — so killing a shard redistributes its key range instead
// of shrinking the ring. A shard whose application ultimately fails is
// degraded and its batch is re-routed once to the next live shard, so
// single-shard trouble sheds load instead of losing rows. Returns the
// number of rows accepted.
func (s *Service) Ingest(ctx context.Context, rows [][]int) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	for _, row := range rows {
		for _, a := range row {
			if a < 0 || a >= s.cfg.NumAttrs {
				return 0, fmt.Errorf("%w: attribute %d out of range [0,%d)", itemsketch.ErrInvalidParams, a, s.cfg.NumAttrs)
			}
		}
	}
	owners := s.routingSnapshot()
	if owners == nil {
		return 0, ErrNoShards
	}
	// Partition round-robin over the slots from a persistent cursor so
	// successive small batches still spread across shards.
	batches := make([][][]int, len(s.shards))
	for _, row := range rows {
		slot := int((s.next.Add(1) - 1) % uint64(len(owners)))
		batches[owners[slot]] = append(batches[owners[slot]], row)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted int
		firstErr error
	)
	for id, batch := range batches {
		if len(batch) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh *Shard, batch [][]int) {
			defer wg.Done()
			err := sh.submit(ctx, batch)
			if err != nil && ctx.Err() == nil && !errors.Is(err, ErrClosed) {
				// Graceful degradation: one re-route attempt to the next
				// live shard (the failed one is degraded or dead by now).
				// Never on a ctx error — the first shard may have applied
				// the batch right as the deadline fired, and re-routing
				// would ingest it twice.
				if alt := s.reroute(sh); alt != nil {
					err = alt.submit(ctx, batch)
				}
			}
			mu.Lock()
			if err == nil {
				accepted += len(batch)
			} else if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}(s.shards[id], batch)
	}
	wg.Wait()
	if accepted == 0 && firstErr != nil {
		return 0, firstErr
	}
	return accepted, nil
}

// reroute picks a live shard other than the failed one, or nil.
func (s *Service) reroute(failed *Shard) *Shard {
	for _, sh := range s.live() {
		if sh != failed {
			return sh
		}
	}
	return nil
}

// Estimate answers a batch of itemset frequency queries by fanning out
// to every live shard's snapshot through query.EstimateMany (so each
// shard's batch is CPU-sharded and ctx-cancellable mid-batch) and
// combining the per-shard estimates weighted by rows seen — the
// expectation of querying the merged reservoir. Shards that fail or
// miss the deadline are reported in the Partial, not fatal; only zero
// answering shards is an error (ErrNoShards, or ctx.Err() when the
// deadline caused it).
func (s *Service) Estimate(ctx context.Context, ts []itemsketch.Itemset) ([]float64, Partial, error) {
	live := s.live()
	answered := make([]int, 0, len(live))
	if len(live) == 0 {
		return nil, s.partialFor(answered), ErrNoShards
	}
	type shardRes struct {
		id   int
		seen int64
		ests []float64
		err  error
	}
	results := make([]shardRes, len(live))
	var wg sync.WaitGroup
	for i, sh := range live {
		wg.Add(1)
		go func(i int, sh *Shard) {
			defer wg.Done()
			snap := sh.snapshot()
			out := make([]float64, len(ts))
			err := snap.q.EstimateMany(ctx, ts, out)
			if err != nil && ctx.Err() == nil {
				// A genuine shard-side failure, not the caller's deadline.
				sh.recordFailure(err)
			}
			results[i] = shardRes{id: sh.id, seen: snap.seen, ests: out, err: err}
		}(i, sh)
	}
	wg.Wait()
	ests := make([]float64, len(ts))
	var weight float64
	for _, r := range results {
		if r.err != nil {
			continue
		}
		answered = append(answered, r.id)
		if r.seen == 0 {
			continue // an empty shard answers, with nothing to add
		}
		w := float64(r.seen)
		weight += w
		for j, f := range r.ests {
			ests[j] += w * f
		}
	}
	return s.weightedAnswer(ctx, answered, ests, weight)
}

// weightedAnswer finishes a seen-weighted combine: ests holds the
// weighted sums over the answered shards, which weigh weight in total.
func (s *Service) weightedAnswer(ctx context.Context, answered []int, ests []float64, weight float64) ([]float64, Partial, error) {
	p := s.partialFor(answered)
	if p.Answered == 0 {
		return nil, p, noAnswer(ctx)
	}
	if weight > 0 {
		for j := range ests {
			ests[j] /= weight
		}
	}
	return ests, p, nil
}

// noAnswer is the error of a query no shard answered: the caller's
// deadline when that caused it, ErrNoShards otherwise.
func noAnswer(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return ErrNoShards
}

// Mine runs a frequent-itemset mine over the union of the live shard
// samples: the shard reservoirs are merged on read with stream.Merge
// (the mergeable-summaries property — the merged sample is a uniform
// sample of the union stream) and mined with the ctx-aware batched
// Apriori. The merged, column-indexed union sample is memoized per
// snapshot generation, so repeated mines against an unchanged service
// reuse one merge — and return identical results, since no fresh merge
// seed is drawn. Dead or snapshot-less shards degrade the result to a
// partial over the answering shards.
func (s *Service) Mine(ctx context.Context, minSupport float64, maxK int) ([]itemsketch.MiningResult, Partial, error) {
	db, p, err := mergeRead(ctx, s, &s.mineMerge,
		func(sn *snapshot) *stream.Reservoir { return sn.res },
		func(acc, next *stream.Reservoir) (*stream.Reservoir, error) {
			if acc == nil {
				return next, nil
			}
			return stream.Merge(acc, next, s.nextMergeSeed())
		},
		func(merged *stream.Reservoir) *dataset.Database {
			// Database() clones the sample, so indexing never touches a
			// snapshot other queries are reading.
			db := merged.Database()
			db.BuildColumnIndex()
			return db
		})
	if err != nil {
		return nil, p, err
	}
	rs, err := itemsketch.AprioriContext(ctx, itemsketch.QueryDatabase(db), minSupport, maxK)
	if err != nil {
		return nil, p, err
	}
	return rs, p, nil
}

// HeavyHitter is one heavy single item from the merged heavy-hitter
// view: the item and its estimated count.
type HeavyHitter struct {
	Item  int   `json:"item"`
	Count int64 `json:"count"`
}

// HeavyHitterSource names the summary backing HeavyHitters:
// "count-sketch" when Config.CountSketch is set, "misra-gries"
// otherwise.
func (s *Service) HeavyHitterSource() string {
	if s.csCfg != nil {
		return "count-sketch"
	}
	return "misra-gries"
}

// checkPhi validates a heavy-hitter threshold. It returns an error
// rather than panicking because phi arrives from the network surface.
func checkPhi(phi float64) error {
	if !(phi > 0 && phi <= 1) {
		return fmt.Errorf("%w: phi = %g out of range (0, 1]", itemsketch.ErrInvalidParams, phi)
	}
	return nil
}

// HeavyHitters returns the items whose occurrence frequency may reach
// phi across the union of the live shards' streams, with the merged
// occurrence total. When Config.CountSketch is set the shards' count
// sketches are merged on read (the O(1) cell-wise merge — bit-identical
// to having sketched the union as one stream) and queried by recursive
// dyadic descent; otherwise the Misra–Gries summaries merge by the
// counter-merge law. Fails with ErrNoShards when the heavy-hitter path
// is disabled or fully degraded.
func (s *Service) HeavyHitters(ctx context.Context, phi float64) ([]HeavyHitter, int64, Partial, error) {
	if err := checkPhi(phi); err != nil {
		return nil, 0, s.partialFor(nil), err
	}
	if s.csCfg == nil {
		return s.summaryHeavyHitters(ctx, phi, kindHeavy, &s.mgMerge)
	}
	merged, p, err := mergeRead(ctx, s, &s.csMerge,
		func(sn *snapshot) *countsketch.Sketch { return sn.kinds.countSketch() },
		func(acc, next *countsketch.Sketch) (*countsketch.Sketch, error) {
			if acc == nil {
				return next.Clone(), nil // merged in place below: never a snapshot's own
			}
			return acc, acc.Merge(next)
		},
		same[*countsketch.Sketch])
	if err != nil {
		return nil, 0, p, err
	}
	var out []HeavyHitter
	for _, hit := range merged.HeavyHitters(phi) {
		out = append(out, HeavyHitter{Item: hit.Item, Count: hit.Count})
	}
	return out, merged.Total(), p, nil
}

// WindowEnabled reports whether the sliding-window query surface is
// configured.
func (s *Service) WindowEnabled() bool { return s.cfg.Window != nil }

// EstimateWindow answers itemset frequency queries over the trailing
// window only: each live shard's windowed reservoir estimates over its
// own last Window.Rows rows, and the per-shard estimates combine
// weighted by rows currently inside each shard's window — the
// expectation of querying the union of the shard windows. The partial
// semantics match Estimate.
func (s *Service) EstimateWindow(ctx context.Context, ts []itemsketch.Itemset) ([]float64, Partial, error) {
	if s.cfg.Window == nil {
		return nil, s.partialFor(nil), ErrNoWindow
	}
	live := s.live()
	answered := make([]int, 0, len(live))
	ests := make([]float64, len(ts))
	var weight float64
	for _, sh := range live {
		if err := ctx.Err(); err != nil {
			return nil, s.partialFor(answered), err
		}
		win := sh.snapshot().kinds.window()
		if win == nil {
			continue
		}
		answered = append(answered, sh.id)
		w := float64(win.WindowSeen())
		if w == 0 {
			continue // answers, with nothing in its window yet
		}
		weight += w
		for j, t := range ts {
			ests[j] += w * win.Estimate(t)
		}
	}
	return s.weightedAnswer(ctx, answered, ests, weight)
}

// HeavyHittersWindow returns the items heavy within the decayed recent
// stream: the shards' decayed Misra–Gries summaries merge on read
// (MergeDecayed aligns epochs by ticking the younger side forward), and
// the merged summary is thresholded at phi. Counts are decayed
// occurrence mass, rounded; n is the merged decayed total.
func (s *Service) HeavyHittersWindow(ctx context.Context, phi float64) ([]HeavyHitter, int64, Partial, error) {
	if s.cfg.Window == nil || s.cfg.Window.DecayK < 2 {
		return nil, 0, s.partialFor(nil), ErrNoWindow
	}
	if err := checkPhi(phi); err != nil {
		return nil, 0, s.partialFor(nil), err
	}
	return s.summaryHeavyHitters(ctx, phi, kindDecayed, &s.dmgMerge)
}

// summaryHeavyHitters merges one decayed Misra–Gries kind of the sketch
// set across the live shards through cache and thresholds it at phi.
// Counts and the total are occurrence mass, rounded; the whole-stream
// summary never decays, so for it they are exact.
func (s *Service) summaryHeavyHitters(ctx context.Context, phi float64, kind int,
	cache *mergeCache[*stream.DecayedMisraGries]) ([]HeavyHitter, int64, Partial, error) {
	merged, p, err := mergeRead(ctx, s, cache,
		func(sn *snapshot) *stream.DecayedMisraGries {
			m, _ := sn.kinds[kind].(*stream.DecayedMisraGries)
			return m
		},
		func(acc, next *stream.DecayedMisraGries) (*stream.DecayedMisraGries, error) {
			if acc == nil {
				return next, nil
			}
			return stream.MergeDecayed(acc, next)
		},
		same[*stream.DecayedMisraGries])
	if err != nil {
		return nil, 0, p, err
	}
	var out []HeavyHitter
	for _, it := range merged.HeavyHitters(phi) {
		out = append(out, HeavyHitter{Item: it, Count: int64(math.Round(merged.Count(it)))})
	}
	return out, int64(math.Round(merged.N())), p, nil
}

// nextMergeSeed derives a fresh deterministic seed for a read-side
// reservoir merge.
func (s *Service) nextMergeSeed() uint64 {
	return s.cfg.Seed ^ (0x9e3779b97f4a7c15 * s.mseed.Add(1))
}

// Checkpoint persists every live shard (see Shard.Checkpoint),
// returning the first error after attempting all of them.
func (s *Service) Checkpoint() error {
	var first error
	for _, sh := range s.shards {
		if sh.State() == Dead {
			continue
		}
		if err := sh.Checkpoint(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ShardHealth is one shard's row in the health report.
type ShardHealth struct {
	ID          int    `json:"id"`
	State       string `json:"state"`
	Seen        int64  `json:"seen"`
	SampleRows  int    `json:"sample_rows"`
	Failures    int    `json:"consecutive_failures"`
	Checkpoints int64  `json:"checkpoints"`
	// RoutedTo is the shard currently owning this shard's ingest slot:
	// itself while live, the re-home target while it is dead, -1 when
	// every shard is dead.
	RoutedTo  int    `json:"routed_to"`
	LastError string `json:"last_error,omitempty"`
}

// HealthReport returns the per-shard states for /healthz.
func (s *Service) HealthReport() []ShardHealth {
	routing := s.Routing()
	out := make([]ShardHealth, len(s.shards))
	for i, sh := range s.shards {
		snap := sh.snapshot()
		out[i] = ShardHealth{
			ID:          sh.id,
			State:       sh.State().String(),
			Seen:        snap.seen,
			SampleRows:  snap.db.NumRows(),
			Failures:    int(sh.fails.Load()),
			Checkpoints: sh.checkpoints.Load(),
			RoutedTo:    routing[i],
			LastError:   sh.lastError(),
		}
	}
	return out
}

// Ready reports whether the live-shard quorum is met.
func (s *Service) Ready() bool { return len(s.live()) >= s.cfg.MinReady }
