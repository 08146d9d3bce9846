package service

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	itemsketch "repro"
	"repro/internal/atomicfile"
	"repro/internal/core"
	"repro/internal/stream"
)

// Checkpoint file layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "ISKP"
//	4       1     version (4)
//	5       2     shard id
//	7       8     rows seen
//	15      4     reservoir capacity
//	19      8     reservoir restart seed
//	27      4     CRC-32 (IEEE) of bytes [0,27)
//	31      ...   reservoir envelope (itemsketch.MarshalTo of the sample
//	              wrapped as a SUBSAMPLE sketch)
//	...     ...   per sketch-set kind, in sketchSet order: a presence
//	              byte (0 or 1), then the kind's envelope when it is 1
//
// The envelopes reuse the public streaming codec, so a checkpoint's
// sketch portions are inspectable and recoverable by the same tooling
// as any other sketch file, and inherit its chunked-CRC torn-stream
// detection. The header carries exactly the state the envelope cannot:
// Algorithm R's stream position, the capacity (the sample may be
// smaller near the start of a stream), and a fresh seed — which is all
// a reservoir needs to continue the stream with its uniformity
// guarantee intact (see stream.RestoreReservoir). Every other kind
// needs no header help: its envelope carries geometry, seeds and
// counters, everything its exact state is. A file of any other version
// fails with ErrUnsupportedVersion.
const (
	ckptMagic      = "ISKP"
	ckptVersion    = 4
	ckptHeaderSize = 31
)

// ckptCorruptf mirrors the codec's corruptf for checkpoint-level
// failures, wrapping the public ErrCorruptSketch.
func ckptCorruptf(format string, args ...any) error {
	return fmt.Errorf("%w: checkpoint %s", itemsketch.ErrCorruptSketch, fmt.Sprintf(format, args...))
}

// ckptTruncatedf marks a checkpoint that ended early, wrapping both
// ErrCorruptSketch and ErrTruncatedStream like the codec does.
func ckptTruncatedf(format string, args ...any) error {
	return fmt.Errorf("%w: %w: checkpoint %s", itemsketch.ErrCorruptSketch, itemsketch.ErrTruncatedStream, fmt.Sprintf(format, args...))
}

// checkpointPath returns shard i's checkpoint file path.
func (s *Service) checkpointPath(id int) string {
	return filepath.Join(s.cfg.CheckpointDir, fmt.Sprintf("shard-%d.ckpt", id))
}

// Checkpoint persists the shard's current state crash-safely: the
// state is frozen under the shard lock, encoded through the public
// envelope codec, and written with atomicfile (temp + fsync + rename)
// under the retry policy, through Config.CheckpointWriteWrap when set.
// A kill at any byte offset leaves the previous checkpoint intact.
// Failures degrade the shard; success resets its failure streak.
func (sh *Shard) Checkpoint() error {
	if sh.svc.cfg.CheckpointDir == "" {
		return nil
	}
	snap, seed := sh.freezeForCheckpoint()
	sample, err := core.SubsampleFromSample(snap.res.Database(), sh.svc.cfg.Params)
	if err != nil {
		sh.recordFailure(err)
		return err
	}
	err = sh.withRetry(context.Background(), func(int) error {
		return atomicfile.Write(sh.svc.checkpointPath(sh.id), func(w io.Writer) error {
			if wrap := sh.svc.cfg.CheckpointWriteWrap; wrap != nil {
				w = wrap(w)
			}
			return writeCheckpoint(w, sh.id, seed, snap, sample)
		})
	})
	if err != nil {
		sh.recordFailure(err)
		return err
	}
	sh.checkpoints.Add(1)
	sh.recordSuccess()
	return nil
}

// freezeForCheckpoint returns the state a checkpoint persists and resets
// the auto-checkpoint counter. While the shard lock is held the
// published snapshot is the live state, and it is immutable, so it is
// written as it is. The restart seed is drawn from the shard's
// generator, so recovered reservoirs get coins independent of anything
// used before the crash.
func (sh *Shard) freezeForCheckpoint() (*snapshot, uint64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.sinceCkpt = 0
	return sh.snapshot(), sh.jrng.Uint64()
}

// writeCheckpoint streams one checkpoint image of snap to w; sample is
// snap's reservoir wrapped as a sketch.
func writeCheckpoint(w io.Writer, id int, seed uint64, snap *snapshot, sample itemsketch.Sketch) error {
	var hdr [ckptHeaderSize]byte
	copy(hdr[0:4], ckptMagic)
	hdr[4] = ckptVersion
	binary.LittleEndian.PutUint16(hdr[5:7], uint16(id))
	binary.LittleEndian.PutUint64(hdr[7:15], uint64(snap.seen))
	binary.LittleEndian.PutUint32(hdr[15:19], uint32(snap.res.Capacity()))
	binary.LittleEndian.PutUint64(hdr[19:27], seed)
	binary.LittleEndian.PutUint32(hdr[27:31], crc32.ChecksumIEEE(hdr[:27]))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := itemsketch.MarshalTo(w, sample); err != nil {
		return err
	}
	return writeKinds(w, &snap.kinds)
}

// readSection fills buf from r, classifying an early end of stream as
// the given truncation message while letting transport errors (a
// failing disk, an injected fault) surface bare.
func readSection(r io.Reader, buf []byte, truncMsg string) error {
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return ckptTruncatedf("%s", truncMsg)
		}
		return err
	}
	return nil
}

// readCheckpoint decodes and validates one checkpoint image from r: the
// restored reservoir, and the kinds the file carries, each checked
// against want, the freshly built sketch set of the running config (see
// readKinds). Truncation wraps ErrTruncatedStream, corruption wraps
// ErrCorruptSketch (the envelopes' own classification passes through),
// and transport errors from r surface bare.
func readCheckpoint(r io.Reader, wantID, wantAttrs int, want sketchSet) (*stream.Reservoir, sketchSet, error) {
	var hdr [ckptHeaderSize]byte
	if err := readSection(r, hdr[:], "header cut short"); err != nil {
		return nil, sketchSet{}, err
	}
	if string(hdr[0:4]) != ckptMagic {
		return nil, sketchSet{}, ckptCorruptf("bad magic %q", hdr[0:4])
	}
	if got, want := binary.LittleEndian.Uint32(hdr[27:31]), crc32.ChecksumIEEE(hdr[:27]); got != want {
		return nil, sketchSet{}, ckptCorruptf("header checksum 0x%08x, want 0x%08x", got, want)
	}
	if version := int(hdr[4]); version != ckptVersion {
		return nil, sketchSet{}, fmt.Errorf("%w: checkpoint version %d, this build reads %d",
			itemsketch.ErrUnsupportedVersion, version, ckptVersion)
	}
	if id := int(binary.LittleEndian.Uint16(hdr[5:7])); id != wantID {
		return nil, sketchSet{}, ckptCorruptf("belongs to shard %d, not %d", id, wantID)
	}
	seen := int64(binary.LittleEndian.Uint64(hdr[7:15]))
	capacity := int(binary.LittleEndian.Uint32(hdr[15:19]))
	seed := binary.LittleEndian.Uint64(hdr[19:27])

	sample, err := readSample(r, wantAttrs)
	if err != nil {
		return nil, sketchSet{}, err
	}
	res, err := stream.RestoreReservoir(sample, capacity, seen, seed)
	if err != nil {
		return nil, sketchSet{}, ckptCorruptf("reservoir state rejected: %v", err)
	}
	kinds, err := readKinds(r, want)
	if err != nil {
		return nil, sketchSet{}, err
	}
	return res, kinds, nil
}

// recoverAll replays the newest valid checkpoint of every shard from
// cfg.CheckpointDir. A missing file starts the shard empty (a fresh
// deployment, not a fault). A torn or corrupt checkpoint fails New
// under StrictRecovery; otherwise the shard starts empty and Degraded,
// with the decode error held as its last error — visible on /healthz,
// recoverable by the next successful ingest.
func (s *Service) recoverAll() error {
	for _, sh := range s.shards {
		err := sh.recover()
		if err == nil {
			continue
		}
		if s.cfg.StrictRecovery {
			return fmt.Errorf("shard %d: %w", sh.id, err)
		}
		sh.recordFailure(fmt.Errorf("recovery: %w", err))
		sh.state.CompareAndSwap(int32(Healthy), int32(Degraded))
	}
	return nil
}

// recover replays this shard's checkpoint file if one exists. It runs
// before the shard's worker starts; kinds the file lacks keep their
// fresh, empty state.
func (sh *Shard) recover() error {
	f, err := os.Open(sh.svc.checkpointPath(sh.id))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	defer f.Close()
	var r io.Reader = f
	if wrap := sh.svc.cfg.CheckpointReadWrap; wrap != nil {
		r = wrap(r)
	}
	res, found, err := readCheckpoint(r, sh.id, sh.svc.cfg.NumAttrs, sh.kinds)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	sh.res = res
	sh.kinds.adopt(found)
	sh.publishSnapshotLocked()
	sh.mu.Unlock()
	return nil
}
