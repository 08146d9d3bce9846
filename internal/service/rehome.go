package service

import (
	"bytes"
	"fmt"
	"io"

	itemsketch "repro"
	"repro/internal/core"
	"repro/internal/dataset"
)

// This file is the shard re-homing state machine: when a shard goes
// dead its ingest slot is redistributed to the live shards (so writes
// keep landing instead of shrinking the round-robin), and a
// replacement can later be bootstrapped from a peer's replication
// envelope — the same byte stream GET /v1/shards/{id}/sketch serves —
// turning "partial forever" into "degraded then recovered".
//
// Routing is a slot table: slot i is shard i's home, and
// recomputeRouting reassigns dead shards' slots to live shards
// deterministically (slot → live[slot mod len(live)]). The table is
// recomputed on every Dead transition in either direction, which
// setState hooks.

// recomputeRouting rebuilds the slot table from the current shard
// states. A live shard always owns its home slot; a dead shard's slot
// re-homes to a live shard; with no live shards every slot is -1 (the
// all-dead state Ingest reports as ErrNoShards).
func (s *Service) recomputeRouting() {
	s.routeMu.Lock()
	defer s.routeMu.Unlock()
	live := make([]int, 0, len(s.shards))
	for _, sh := range s.shards {
		if sh.State() != Dead {
			live = append(live, sh.id)
		}
	}
	for slot := range s.routing {
		switch {
		case s.shards[slot].State() != Dead:
			s.routing[slot] = slot
		case len(live) == 0:
			s.routing[slot] = -1
		default:
			s.routing[slot] = live[slot%len(live)]
		}
	}
}

// routingSnapshot copies the slot table, or returns nil when every
// slot is ownerless (all shards dead — recomputeRouting only writes -1
// into all slots together).
func (s *Service) routingSnapshot() []int {
	s.routeMu.RLock()
	defer s.routeMu.RUnlock()
	if len(s.routing) == 0 || s.routing[0] < 0 {
		return nil
	}
	return append([]int(nil), s.routing...)
}

// Routing returns the current ingest slot table: entry i is the shard
// owning shard i's key range — i itself while shard i is live, the
// re-home target while it is dead, -1 when every shard is dead.
func (s *Service) Routing() []int {
	s.routeMu.RLock()
	defer s.routeMu.RUnlock()
	return append([]int(nil), s.routing...)
}

// BootstrapShard revives dead shard id from a replication envelope
// stream — the write half of the GET /v1/shards/{id}/sketch read path.
// The envelope's row sample re-seeds the shard's reservoir exactly
// like checkpoint recovery (stream.RestoreReservoir, with seen as the
// stream-length counter); the side summaries restart empty, since the
// envelope carries only the sample, and re-establish their bounds as
// the revived shard ingests. On success the shard returns Healthy and
// its home slot routes to it again.
//
// Only a Dead shard may be bootstrapped: this is the one sanctioned
// exception to "dead is terminal", and it is an explicit operator (or
// orchestrator) action, never an automatic resurrection.
func (s *Service) BootstrapShard(id int, r io.Reader, seen int64) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if id < 0 || id >= len(s.shards) {
		return fmt.Errorf("%w: no shard %d", itemsketch.ErrInvalidParams, id)
	}
	sh := s.shards[id]
	if sh.State() != Dead {
		return fmt.Errorf("%w: shard %d is %s; only a dead shard can be bootstrapped", itemsketch.ErrInvalidParams, id, sh.State())
	}
	sample, err := readSample(r, s.cfg.NumAttrs)
	if err != nil {
		return err
	}
	if seen < int64(sample.NumRows()) {
		// An absent or understated counter still admits the sample; the
		// weight floor is the sample itself.
		seen = int64(sample.NumRows())
	}
	return sh.revive(sample, seen)
}

// readSample decodes a sketch envelope that must carry a row sample
// over d attributes — the reservoir state of a bootstrap stream and of
// a checkpoint.
func readSample(r io.Reader, d int) (*dataset.Database, error) {
	sk, err := itemsketch.UnmarshalFrom(r)
	if err != nil {
		return nil, err
	}
	holder, ok := sk.(core.SampleHolder)
	if !ok {
		return nil, fmt.Errorf("%w: envelope holds a %s sketch, not a sample-backed one", itemsketch.ErrCorruptSketch, sk.Name())
	}
	sample := holder.Sample()
	if sample.NumCols() != d {
		return nil, fmt.Errorf("%w: sample universe d=%d, service universe d=%d", itemsketch.ErrCorruptSketch, sample.NumCols(), d)
	}
	return sample, nil
}

// RehomeFromPeer bootstraps dead shard dst from live shard src in
// process: src's snapshot sample streams through the same envelope
// codec the HTTP replication path uses (itemsketch.MarshalTo →
// UnmarshalFrom), so in-process and cross-node bootstraps are
// byte-identical. The replica carries src's sample and seen weight —
// statistically a stand-in for the lost stream (every shard sees an
// identically-distributed round-robin slice), not the dead shard's
// exact rows; those are only recoverable from its own checkpoint.
func (s *Service) RehomeFromPeer(dst, src int) error {
	if src < 0 || src >= len(s.shards) || src == dst {
		return fmt.Errorf("%w: bad bootstrap peer %d for shard %d", itemsketch.ErrInvalidParams, src, dst)
	}
	peer := s.shards[src]
	if peer.State() == Dead {
		return fmt.Errorf("%w: bootstrap peer %d", ErrShardDead, src)
	}
	snap := peer.snapshot()
	sk, err := core.SubsampleFromSample(snap.res.Database(), s.cfg.Params)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if _, err := itemsketch.MarshalTo(&buf, sk); err != nil {
		return err
	}
	return s.BootstrapShard(dst, &buf, snap.seen)
}
