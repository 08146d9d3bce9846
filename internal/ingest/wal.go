// Package ingest is the durable write-ahead row log (WAL) of streaming
// ingest, whose records are envelope-framed row batches. Sharded
// ingest itself is the service's job (internal/service).
//
// The WAL makes ingest replayable: rows are appended to segment files
// as standard v2 sketch envelopes (chunked CRC-32 framing, optional
// flate) carrying the batch as a SUBSAMPLE payload, so the replayer is
// just the library's streaming decoder in a loop. A crash can only
// tear the tail of the newest segment — appends never rewrite earlier
// bytes — and the torn tail is detected by the envelope framing and
// truncated at the last valid record boundary on reopen.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	itemsketch "repro"
	"repro/internal/core"
	"repro/internal/dataset"
)

// WAL segment layout. A log directory holds segments
//
//	wal-00000000.seg   sealed (complete, never appended again)
//	wal-00000001.open  active (appended until rotation seals it)
//
// with strictly increasing sequence numbers. Each segment starts with
// a fixed header:
//
//	offset  size  field
//	     0     4  magic "ISWL"
//	     4     1  segment format version (1)
//	     5     4  attribute universe d (little-endian)
//	     9     8  sequence number (little-endian)
//	    17     4  CRC-32 (IEEE) of bytes 0–16
//
// followed by zero or more records, each one a complete itemsketch
// envelope (version 2: chunked, per-chunk CRC-32, optionally flate-
// compressed) whose payload is a SUBSAMPLE sketch carrying the batch
// rows. Envelopes are self-delimiting, so records are concatenated
// with no extra framing and every record boundary is a byte offset
// the recovery scan can truncate to.
const (
	walVersion   = 1
	walHeaderLen = 21
)

var walMagic = [4]byte{'I', 'S', 'W', 'L'}

// DefaultBatchRows is the number of rows buffered into one WAL record
// when WALConfig.BatchRows is zero.
const DefaultBatchRows = 256

// DefaultSegmentBytes is the rotation threshold when
// WALConfig.SegmentBytes is zero: an active segment that grows past
// this is sealed and a new one opened.
const DefaultSegmentBytes = 4 << 20

// ErrWALCorrupt marks a sealed-segment record that failed its checksum
// or decoded to an impossible batch — real data loss, never silently
// skipped. It wraps the underlying codec error; torn active tails are
// NOT this (they are truncated on open, the crash-recovery contract).
var ErrWALCorrupt = errors.New("ingest: corrupt WAL record")

// WALConfig parameterizes a write-ahead row log.
type WALConfig struct {
	// Dir is the segment directory, created if absent.
	Dir string
	// NumAttrs is the attribute universe size d of logged rows.
	NumAttrs int
	// BatchRows is the number of rows per record (DefaultBatchRows when
	// zero): Append buffers this many rows, then writes one envelope.
	BatchRows int
	// SegmentBytes rotates the active segment once it exceeds this size
	// (DefaultSegmentBytes when zero).
	SegmentBytes int64
	// Compress flate-compresses record envelopes.
	Compress bool
	// SyncEvery fsyncs the active segment after every n records; 0
	// syncs only on rotation and Close. Durability of the tail trades
	// against append throughput exactly here.
	SyncEvery int
	// WriteWrap and ReadWrap interpose on segment I/O — the fault-
	// injection seam (internal/faultio) the recovery tests drive.
	WriteWrap func(io.Writer) io.Writer
	ReadWrap  func(io.Reader) io.Reader
}

func (c *WALConfig) batchRows() int {
	if c.BatchRows <= 0 {
		return DefaultBatchRows
	}
	return c.BatchRows
}

func (c *WALConfig) segmentBytes() int64 {
	if c.SegmentBytes <= 0 {
		return DefaultSegmentBytes
	}
	return c.SegmentBytes
}

// walCarrierParams is the Params header stamped on record payloads.
// The batch is not a statistical sketch — the SUBSAMPLE carrier is
// reused for its codec — so the contract fields are fixed sentinels.
var walCarrierParams = core.Params{K: 1, Eps: 0.5, Delta: 0.5, Mode: core.ForEach, Task: core.Estimator}

// WAL is an append-only durable row log. It is not safe for concurrent
// use: a caller with several writers serializes its appends.
type WAL struct {
	cfg     WALConfig
	active  *os.File
	size    int64 // bytes written to the active segment
	seq     uint64
	batch   *dataset.Database
	rows    int64 // rows appended over the WAL's lifetime (this process)
	records int64 // records since the last fsync
}

// OpenWAL opens (or creates) the log directory and prepares the active
// segment for appending. A torn tail left by a crash — a final record
// whose envelope is incomplete — is truncated to the last valid record
// boundary before the segment is reused; sealed segments are never
// modified.
func OpenWAL(cfg WALConfig) (*WAL, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("%w: WAL needs a directory", core.ErrInvalidParams)
	}
	if cfg.NumAttrs < 1 {
		return nil, fmt.Errorf("%w: WAL needs d ≥ 1 attributes, got %d", core.ErrInvalidParams, cfg.NumAttrs)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	w := &WAL{cfg: cfg, batch: dataset.NewDatabase(cfg.NumAttrs)}
	segs, err := listSegments(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := w.openSegment(0); err != nil {
			return nil, err
		}
		return w, nil
	}
	last := segs[len(segs)-1]
	if !last.open {
		// The newest segment was sealed cleanly (or the crash hit after
		// rename); start a fresh active segment after it.
		if err := w.openSegment(last.seq + 1); err != nil {
			return nil, err
		}
		return w, nil
	}
	// Re-adopt the torn-or-clean active segment: scan to the last valid
	// record boundary and truncate anything after it.
	valid, _, err := w.scanSegment(last.path, true)
	if err != nil {
		return nil, fmt.Errorf("recovering %s: %w", filepath.Base(last.path), err)
	}
	if valid < walHeaderLen {
		// The crash hit before the segment header was durable; the file
		// holds nothing recoverable. Recreate it from scratch.
		if err := os.Remove(last.path); err != nil {
			return nil, err
		}
		if err := w.openSegment(last.seq); err != nil {
			return nil, err
		}
		return w, nil
	}
	f, err := os.OpenFile(last.path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	w.active, w.size, w.seq = f, valid, last.seq
	return w, nil
}

type segmentInfo struct {
	path string
	seq  uint64
	open bool
}

// listSegments returns the directory's WAL segments in ascending
// sequence order.
func listSegments(dir string) ([]segmentInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segmentInfo
	for _, e := range ents {
		name := e.Name()
		var seq uint64
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
			if _, err := fmt.Sscanf(name, "wal-%08d.seg", &seq); err != nil {
				continue
			}
			segs = append(segs, segmentInfo{path: filepath.Join(dir, name), seq: seq})
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".open"):
			if _, err := fmt.Sscanf(name, "wal-%08d.open", &seq); err != nil {
				continue
			}
			segs = append(segs, segmentInfo{path: filepath.Join(dir, name), seq: seq, open: true})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	for i := 1; i < len(segs); i++ {
		if segs[i].seq == segs[i-1].seq {
			return nil, fmt.Errorf("%w: segment %d exists both sealed and open", ErrWALCorrupt, segs[i].seq)
		}
	}
	return segs, nil
}

func segName(dir string, seq uint64, open bool) string {
	ext := ".seg"
	if open {
		ext = ".open"
	}
	return filepath.Join(dir, fmt.Sprintf("wal-%08d%s", seq, ext))
}

// openSegment creates the active segment file with its header.
func (w *WAL) openSegment(seq uint64) error {
	f, err := os.OpenFile(segName(w.cfg.Dir, seq, true), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	var hdr [walHeaderLen]byte
	copy(hdr[0:4], walMagic[:])
	hdr[4] = walVersion
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(w.cfg.NumAttrs))
	binary.LittleEndian.PutUint64(hdr[9:17], seq)
	binary.LittleEndian.PutUint32(hdr[17:21], crc32.ChecksumIEEE(hdr[:17]))
	var out io.Writer = f
	if w.cfg.WriteWrap != nil {
		out = w.cfg.WriteWrap(out)
	}
	if _, err := out.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	w.active, w.size, w.seq = f, walHeaderLen, seq
	return nil
}

// Append logs one row given as attribute indices. The row is buffered;
// it reaches the active segment when the batch fills (BatchRows) and
// the disk when the segment is synced (SyncEvery, rotation, or Close).
func (w *WAL) Append(attrs ...int) error {
	if w.active == nil {
		return fmt.Errorf("%w: WAL is closed", core.ErrInvalidParams)
	}
	w.batch.AddRowAttrs(attrs...)
	w.rows++
	if w.batch.NumRows() >= w.cfg.batchRows() {
		return w.Flush()
	}
	return nil
}

// writeRecord encodes the buffered batch as one envelope record.
func (w *WAL) writeRecord() error {
	sk, err := core.SubsampleFromSample(w.batch, walCarrierParams)
	if err != nil {
		return err
	}
	var out io.Writer = w.active
	if w.cfg.WriteWrap != nil {
		out = w.cfg.WriteWrap(out)
	}
	var opts []itemsketch.MarshalOption
	if w.cfg.Compress {
		opts = append(opts, itemsketch.WithCompression())
	}
	n, err := itemsketch.MarshalTo(out, sk, opts...)
	if err != nil {
		return err
	}
	w.size += n
	w.batch = dataset.NewDatabase(w.cfg.NumAttrs)
	w.records++
	return nil
}

// Flush writes the buffered batch (if any) as one record, fsyncing on
// the SyncEvery schedule and rotating the segment when it outgrew the
// threshold. Without SyncEvery, Flush does not fsync.
func (w *WAL) Flush() error {
	if w.active == nil {
		return fmt.Errorf("%w: WAL is closed", core.ErrInvalidParams)
	}
	if w.batch.NumRows() == 0 {
		return nil
	}
	if err := w.writeRecord(); err != nil {
		return err
	}
	if w.cfg.SyncEvery > 0 && w.records >= int64(w.cfg.SyncEvery) {
		if err := w.active.Sync(); err != nil {
			return err
		}
		w.records = 0
	}
	if w.size >= w.cfg.segmentBytes() {
		return w.rotate()
	}
	return nil
}

// Sync flushes the buffered batch and fsyncs the active segment: after
// Sync returns, every appended row survives a crash.
func (w *WAL) Sync() error {
	if w.active == nil {
		return fmt.Errorf("%w: WAL is closed", core.ErrInvalidParams)
	}
	if w.batch.NumRows() > 0 {
		if err := w.writeRecord(); err != nil {
			return err
		}
	}
	if err := w.active.Sync(); err != nil {
		return err
	}
	w.records = 0
	if w.size >= w.cfg.segmentBytes() {
		return w.rotate()
	}
	return nil
}

// rotate seals the active segment — fsync, close, rename .open → .seg,
// directory sync — and opens the next one. The rename is the commit
// point, mirroring internal/atomicfile's publish step.
func (w *WAL) rotate() error {
	if err := w.active.Sync(); err != nil {
		return err
	}
	if err := w.active.Close(); err != nil {
		return err
	}
	from := segName(w.cfg.Dir, w.seq, true)
	to := segName(w.cfg.Dir, w.seq, false)
	if err := os.Rename(from, to); err != nil {
		return err
	}
	if err := syncDir(w.cfg.Dir); err != nil {
		return err
	}
	w.records = 0
	return w.openSegment(w.seq + 1)
}

// Close flushes, fsyncs and closes the log. The active segment stays
// .open — the next OpenWAL re-adopts it.
func (w *WAL) Close() error {
	if w.active == nil {
		return nil
	}
	if err := w.Sync(); err != nil {
		w.active.Close()
		w.active = nil
		return err
	}
	err := w.active.Close()
	w.active = nil
	return err
}

// Rows returns the number of rows appended through this WAL handle.
func (w *WAL) Rows() int64 { return w.rows }

// ActiveSegment returns the sequence number of the active segment.
func (w *WAL) ActiveSegment() uint64 { return w.seq }

// NumAttrs returns the logged attribute universe size d.
func (w *WAL) NumAttrs() int { return w.cfg.NumAttrs }

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// countingReader tracks the byte offset of an underlying reader so the
// scan knows each record's end boundary exactly (envelopes are read
// byte-exactly by UnmarshalFrom, never buffered ahead).
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// errHeaderTorn marks a segment whose fixed header is incomplete — a
// crash during segment creation. In the active segment this is a
// recoverable (empty) log; in a sealed segment it is corruption.
var errHeaderTorn = errors.New("ingest: torn segment header")

// readSegmentHeader validates a segment's fixed header against the
// expected universe.
func readSegmentHeader(r io.Reader, wantAttrs int) (seq uint64, err error) {
	var hdr [walHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, errHeaderTorn
		}
		return 0, err
	}
	if hdr[0] != walMagic[0] || hdr[1] != walMagic[1] || hdr[2] != walMagic[2] || hdr[3] != walMagic[3] {
		return 0, fmt.Errorf("%w: bad segment magic %q", ErrWALCorrupt, hdr[0:4])
	}
	if hdr[4] != walVersion {
		return 0, fmt.Errorf("%w: unsupported segment version %d", ErrWALCorrupt, hdr[4])
	}
	if crc := crc32.ChecksumIEEE(hdr[:17]); binary.LittleEndian.Uint32(hdr[17:21]) != crc {
		return 0, fmt.Errorf("%w: segment header checksum mismatch", ErrWALCorrupt)
	}
	if d := binary.LittleEndian.Uint32(hdr[5:9]); int(d) != wantAttrs {
		return 0, fmt.Errorf("%w: segment logs d = %d attributes, log is configured for %d", ErrWALCorrupt, d, wantAttrs)
	}
	return binary.LittleEndian.Uint64(hdr[9:17]), nil
}

// scanSegment walks one segment's records. When emit is non-nil every
// decoded batch is handed to it. tail selects torn-tail tolerance: a
// truncated trailing record is not an error (its offset is simply not
// included in valid); corruption that is not a clean truncation is
// ErrWALCorrupt either way. Returns the byte offset just after the
// last valid record and the number of rows in valid records.
func (w *WAL) scanSegment(path string, tail bool) (valid int64, rows int64, err error) {
	return scanSegmentWith(path, w.cfg.NumAttrs, w.cfg.ReadWrap, tail, nil)
}

func scanSegmentWith(path string, wantAttrs int, wrap func(io.Reader) io.Reader, tail bool, emit func(*dataset.Database) error) (valid int64, rows int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	var src io.Reader = f
	if wrap != nil {
		src = wrap(src)
	}
	cr := &countingReader{r: src}
	if _, err := readSegmentHeader(cr, wantAttrs); err != nil {
		if errors.Is(err, errHeaderTorn) {
			if tail {
				// A crash before the header hit disk: everything goes.
				return 0, 0, nil
			}
			return 0, 0, fmt.Errorf("%w: %w", ErrWALCorrupt, err)
		}
		return 0, 0, err
	}
	valid = walHeaderLen
	for rec := 0; ; rec++ {
		// Probe one byte so a segment ending exactly at a record
		// boundary reads as clean EOF rather than a truncated envelope.
		var one [1]byte
		n, perr := cr.Read(one[:])
		if n == 0 {
			if perr == io.EOF {
				return valid, rows, nil
			}
			if perr != nil {
				return valid, rows, perr
			}
			return valid, rows, fmt.Errorf("%w: empty read at record %d", ErrWALCorrupt, rec)
		}
		sk, derr := itemsketch.UnmarshalFrom(io.MultiReader(&oneByteReader{b: one[0]}, cr))
		if derr != nil {
			if tail && errors.Is(derr, itemsketch.ErrTruncatedStream) {
				// Torn tail: the crash cut this record short. Truncate
				// here, keep everything before it.
				return valid, rows, nil
			}
			if errors.Is(derr, itemsketch.ErrCorruptSketch) || errors.Is(derr, itemsketch.ErrUnsupportedVersion) {
				return valid, rows, fmt.Errorf("%w: %s record %d (offset %d): %w", ErrWALCorrupt, filepath.Base(path), rec, valid, derr)
			}
			// Transport errors pass through bare.
			return valid, rows, derr
		}
		holder, ok := sk.(core.SampleHolder)
		if !ok || sk.NumAttrs() != wantAttrs {
			return valid, rows, fmt.Errorf("%w: %s record %d decodes as %s over %d attributes, want a %d-attribute row batch",
				ErrWALCorrupt, filepath.Base(path), rec, sk.Name(), sk.NumAttrs(), wantAttrs)
		}
		batch := holder.Sample()
		if emit != nil {
			if err := emit(batch); err != nil {
				return valid, rows, err
			}
		}
		rows += int64(batch.NumRows())
		valid = cr.n
	}
}

// oneByteReader replays the EOF-probe byte ahead of the real stream.
type oneByteReader struct {
	b    byte
	done bool
}

func (o *oneByteReader) Read(p []byte) (int, error) {
	if o.done || len(p) == 0 {
		if o.done {
			return 0, io.EOF
		}
		return 0, nil
	}
	p[0] = o.b
	o.done = true
	return 1, nil
}

// Replay streams every logged row, in append order, to fn — the
// transaction-log ingestion mode. Sealed segments must be fully valid
// (a bad record is ErrWALCorrupt, naming the segment, record and
// offset); the newest segment tolerates a torn tail when it is still
// .open, which is exactly the state a crash leaves. Replay may run on
// a live WAL only after Flush/Sync (it reads the files, not the
// buffer); the durable prefix is what it sees.
func (w *WAL) Replay(fn func(attrs []int) error) (int64, error) {
	return ReplayDir(w.cfg.Dir, w.cfg.NumAttrs, w.cfg.ReadWrap, fn)
}

// ReplayDir replays a WAL directory without opening it for writing —
// the recovery path: feed a fresh service (or any sketch) from the log
// of a crashed process. Row order is append order; attrs slices are
// reused across calls and must not be retained.
func ReplayDir(dir string, numAttrs int, wrap func(io.Reader) io.Reader, fn func(attrs []int) error) (int64, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	var attrs []int
	for i, seg := range segs {
		tail := seg.open && i == len(segs)-1
		_, rows, err := scanSegmentWith(seg.path, numAttrs, wrap, tail, func(batch *dataset.Database) error {
			for r := 0; r < batch.NumRows(); r++ {
				attrs = batch.AppendRowOnes(attrs[:0], r)
				if err := fn(attrs); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return total, err
		}
		total += rows
	}
	return total, nil
}
