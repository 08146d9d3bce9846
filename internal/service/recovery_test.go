package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	itemsketch "repro"
	"repro/internal/countsketch"
	"repro/internal/faultio"
	"repro/internal/stream"
)

// kindsFor builds the sketch set readCheckpoint checks an image
// against: whole-stream heavy hitters with k counters over d
// attributes, plus a count sketch built from cs when it is non-nil.
func kindsFor(t *testing.T, d, k int, cs *countsketch.Config) sketchSet {
	t.Helper()
	var set sketchSet
	heavy, err := stream.NewDecayedMisraGries(d, k, 1, itemsketch.Params{})
	if err != nil {
		t.Fatal(err)
	}
	set[kindHeavy] = heavy
	if cs != nil {
		sk, err := countsketch.New(*cs)
		if err != nil {
			t.Fatal(err)
		}
		set[kindCountSketch] = sk
	}
	return set
}

// checkpointImage builds a service, ingests rows, checkpoints shard 0
// and returns the raw checkpoint bytes plus the shard's seen counter.
func checkpointImage(t *testing.T, dir string) ([]byte, int64) {
	t.Helper()
	cfg := testConfig(6)
	cfg.Shards = 1
	cfg.SampleCapacity = 64
	cfg.CheckpointDir = dir
	s := mustNew(t, cfg)
	if _, err := s.Ingest(context.Background(), genRows(500, 6, 11)); err != nil {
		t.Fatal(err)
	}
	if err := s.Shard(0).Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seen := s.Shard(0).Seen()
	raw, err := os.ReadFile(filepath.Join(dir, "shard-0.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return raw, seen
}

func TestRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const d = 6
	cfg := testConfig(d)
	cfg.CheckpointDir = dir
	ctx := context.Background()

	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Ingest(ctx, genRows(3000, d, 9)); err != nil {
		t.Fatal(err)
	}
	wantEsts, _, err := first.Estimate(ctx, []itemsketch.Itemset{itemsketch.MustItemset(d - 1)})
	if err != nil {
		t.Fatal(err)
	}
	var wantSeen int64
	for i := 0; i < first.NumShards(); i++ {
		wantSeen += first.Shard(i).Seen()
	}
	if err := first.Close(); err != nil { // Close takes the final checkpoints
		t.Fatal(err)
	}

	second := mustNew(t, cfg)
	var gotSeen int64
	for i := 0; i < second.NumShards(); i++ {
		if st := second.Shard(i).State(); st != Healthy {
			t.Fatalf("recovered shard %d is %v, want healthy", i, st)
		}
		gotSeen += second.Shard(i).Seen()
	}
	if gotSeen != wantSeen {
		t.Fatalf("recovered %d rows seen, want %d", gotSeen, wantSeen)
	}
	gotEsts, p, err := second.Estimate(ctx, []itemsketch.Itemset{itemsketch.MustItemset(d - 1)})
	if err != nil {
		t.Fatal(err)
	}
	if p.Degraded() {
		t.Fatalf("recovered service degraded: %v", p)
	}
	if math.Abs(gotEsts[0]-wantEsts[0]) > 1e-12 {
		t.Fatalf("recovered estimate %v, want %v (samples must survive the restart bit-exact)", gotEsts[0], wantEsts[0])
	}
	// The restored reservoirs must keep streaming.
	if _, err := second.Ingest(ctx, genRows(100, d, 10)); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryKillAtEveryByteOffset is the acceptance property: a
// checkpoint stream cut at EVERY byte offset either recovers (only at
// the full length) or fails cleanly wrapping ErrTruncatedStream —
// never a silent wrong recovery, never a bare decode panic.
func TestRecoveryKillAtEveryByteOffset(t *testing.T) {
	raw, seen := checkpointImage(t, t.TempDir())
	for off := 0; off <= len(raw); off++ {
		res, _, err := readCheckpoint(bytes.NewReader(raw[:off]), 0, 6, kindsFor(t, 6, 64, nil))
		if off == len(raw) {
			if err != nil {
				t.Fatalf("full image failed to recover: %v", err)
			}
			if res.Seen() != seen {
				t.Fatalf("recovered seen %d, want %d", res.Seen(), seen)
			}
			break
		}
		if err == nil {
			t.Fatalf("offset %d/%d: truncated checkpoint decoded without error", off, len(raw))
		}
		if !errors.Is(err, itemsketch.ErrTruncatedStream) {
			t.Fatalf("offset %d/%d: error %v does not wrap ErrTruncatedStream", off, len(raw), err)
		}
		if !errors.Is(err, itemsketch.ErrCorruptSketch) {
			t.Fatalf("offset %d/%d: error %v does not wrap ErrCorruptSketch", off, len(raw), err)
		}
	}
}

// TestRecoveryFaultCorruptEveryByte flips each byte of the image in
// turn: every flip must be detected by one of the checksums (header
// CRC, envelope chunk CRCs) or the state validators — a corrupt
// checkpoint never silently recovers. Flips in the envelope's
// flate-compressed payload may surface as truncation (the decompressor
// hits a broken stream early); both classifications wrap
// ErrCorruptSketch.
func TestRecoveryFaultCorruptEveryByte(t *testing.T) {
	raw, _ := checkpointImage(t, t.TempDir())
	for off := 0; off < len(raw); off++ {
		r := faultio.NewReader(bytes.NewReader(raw), faultio.WithCorruptByte(int64(off), 0xA5))
		_, _, err := readCheckpoint(r, 0, 6, kindsFor(t, 6, 64, nil))
		if err == nil {
			t.Fatalf("flip at %d/%d: corrupt checkpoint recovered silently", off, len(raw))
		}
		if !errors.Is(err, itemsketch.ErrCorruptSketch) && !errors.Is(err, itemsketch.ErrUnsupportedVersion) {
			t.Fatalf("flip at %d/%d: %v is not a corruption classification", off, len(raw), err)
		}
	}
}

// TestRecoveryFaultTransportErrorsPassBare: a failing disk read (not a
// short file) must surface as itself so callers can distinguish media
// trouble from torn state.
func TestRecoveryFaultTransportErrorsPassBare(t *testing.T) {
	raw, _ := checkpointImage(t, t.TempDir())
	for _, off := range []int64{0, 10, ckptHeaderSize, int64(len(raw) / 2), int64(len(raw) - 1)} {
		r := faultio.NewReader(bytes.NewReader(raw), faultio.WithFailAt(off, nil))
		_, _, err := readCheckpoint(r, 0, 6, kindsFor(t, 6, 64, nil))
		if !errors.Is(err, faultio.ErrInjected) {
			t.Fatalf("fail at %d: %v, want the injected transport error", off, err)
		}
	}
}

// TestRecoveryTornWriteKeepsPreviousCheckpoint: a checkpoint whose
// write dies at any offset leaves the previous image live, so a
// restart recovers the older consistent state.
func TestRecoveryTornWriteKeepsPreviousCheckpoint(t *testing.T) {
	dir := t.TempDir()
	const d = 6
	cfg := testConfig(d)
	cfg.Shards = 1
	cfg.SampleCapacity = 64
	cfg.CheckpointDir = dir
	cfg.MaxRetries = 1
	ctx := context.Background()

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(ctx, genRows(300, d, 12)); err != nil {
		t.Fatal(err)
	}
	if err := s.Shard(0).Checkpoint(); err != nil {
		t.Fatal(err)
	}
	goodSeen := s.Shard(0).Seen()
	good, err := os.ReadFile(filepath.Join(dir, "shard-0.ckpt"))
	if err != nil {
		t.Fatal(err)
	}

	// Ingest more, then tear the next checkpoint at assorted offsets.
	if _, err := s.Ingest(ctx, genRows(200, d, 13)); err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{0, 1, ckptHeaderSize - 1, ckptHeaderSize + 7, int64(len(good)) - 2} {
		s.cfg.CheckpointWriteWrap = func(w io.Writer) io.Writer {
			return faultio.NewWriter(w, faultio.WithFailAt(off, nil))
		}
		if err := s.Shard(0).Checkpoint(); !errors.Is(err, faultio.ErrInjected) {
			t.Fatalf("tear at %d: checkpoint error %v, want injected", off, err)
		}
		now, rerr := os.ReadFile(filepath.Join(dir, "shard-0.ckpt"))
		if rerr != nil {
			t.Fatal(rerr)
		}
		if !bytes.Equal(now, good) {
			t.Fatalf("tear at %d clobbered the previous checkpoint", off)
		}
	}
	s.cfg.CheckpointWriteWrap = nil
	s.Close()

	// The torn attempts degraded the shard but the old image recovers.
	re := mustNew(t, cfg)
	if got := re.Shard(0).Seen(); got < goodSeen {
		t.Fatalf("recovered seen %d, want at least the first checkpoint's %d", got, goodSeen)
	}
}

func TestRecoveryStrictVsLenient(t *testing.T) {
	dir := t.TempDir()
	raw, _ := checkpointImage(t, dir)
	// Truncate the on-disk checkpoint to simulate a torn file that
	// somehow made it to disk (e.g. a copy from a dying machine).
	if err := os.WriteFile(filepath.Join(dir, "shard-0.ckpt"), raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(6)
	cfg.Shards = 1
	cfg.SampleCapacity = 64
	cfg.CheckpointDir = dir

	cfg.StrictRecovery = true
	if _, err := New(cfg); !errors.Is(err, itemsketch.ErrTruncatedStream) {
		t.Fatalf("strict recovery: %v, want ErrTruncatedStream", err)
	}

	cfg.StrictRecovery = false
	s := mustNew(t, cfg)
	sh := s.Shard(0)
	if sh.State() != Degraded {
		t.Fatalf("lenient recovery state %v, want degraded", sh.State())
	}
	if sh.Seen() != 0 {
		t.Fatalf("lenient recovery kept %d rows from a torn checkpoint", sh.Seen())
	}
	if sh.lastError() == "" {
		t.Fatal("lenient recovery must surface the decode error on the health report")
	}
	// The degraded shard still works and recovers on the next success.
	if _, err := s.Ingest(context.Background(), genRows(50, 6, 14)); err != nil {
		t.Fatal(err)
	}
	if sh.State() != Healthy {
		t.Fatalf("state %v after successful ingest, want healthy", sh.State())
	}
}

func TestRecoveryRejectsForeignShardFile(t *testing.T) {
	dir := t.TempDir()
	raw, _ := checkpointImage(t, dir)
	// Present shard 0's image as shard 1's.
	if err := os.WriteFile(filepath.Join(dir, "shard-1.ckpt"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := readCheckpoint(bytes.NewReader(raw), 1, 6, kindsFor(t, 6, 64, nil))
	if !errors.Is(err, itemsketch.ErrCorruptSketch) {
		t.Fatalf("cross-shard checkpoint: %v, want ErrCorruptSketch", err)
	}
}

// TestRecoveryRejectsOtherVersions: only this build's checkpoint
// version reads. Any other version byte — the retired 1–3 among them —
// fails with ErrUnsupportedVersion even under an intact header
// checksum, rather than being decoded under the wrong layout.
func TestRecoveryRejectsOtherVersions(t *testing.T) {
	raw, _ := checkpointImage(t, t.TempDir())
	for _, v := range []byte{0, 1, 2, 3, ckptVersion + 1, 255} {
		img := append([]byte(nil), raw...)
		img[4] = v
		binary.LittleEndian.PutUint32(img[ckptHeaderSize-4:ckptHeaderSize], crc32.ChecksumIEEE(img[:ckptHeaderSize-4]))
		_, _, err := readCheckpoint(bytes.NewReader(img), 0, 6, kindsFor(t, 6, 64, nil))
		if !errors.Is(err, itemsketch.ErrUnsupportedVersion) {
			t.Fatalf("version %d: %v, want ErrUnsupportedVersion", v, err)
		}
	}
}
