// Command itemsketch builds, inspects, queries, and mines itemset
// frequency sketches from transaction files.
//
// Usage:
//
//	itemsketch sketch -in baskets.txt -d 64 -out sketch.bin [-k 2 -eps 0.05 -delta 0.05 -mode forall -task estimator -algo auto]
//	itemsketch query  -sketch sketch.bin -items 3,17
//	itemsketch mine   -sketch sketch.bin -minsup 0.1 -maxk 3 [-rules 0.6]
//	itemsketch info   -sketch sketch.bin
//
// The transaction format is one basket per line: space-separated
// attribute indices in [0, d). Sketch files are the versioned
// self-describing envelope streamed by itemsketch.MarshalTo (version 2,
// chunked, optionally compressed with -compress); version-1 envelopes
// and files from the pre-envelope format are still read transparently.
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	itemsketch "repro"
	"repro/internal/atomicfile"
	"repro/internal/bitvec"
	"repro/internal/core"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "sketch":
		err = cmdSketch(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "mine":
		err = cmdMine(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "itemsketch:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: itemsketch <sketch|query|mine|info> [flags]
  sketch -in FILE -d COLS -out FILE [-k K -eps E -delta D -mode forall|foreach -task estimator|indicator -algo auto|subsample|release-db|release-answers|importance-sample -seed N -compress]
  query  -sketch FILE -items a,b,c
  mine   -sketch FILE -minsup F -maxk K [-rules CONF]
  info   -sketch FILE`)
}

func parseParams(k int, eps, delta float64, mode, task string) (itemsketch.Params, error) {
	p := itemsketch.Params{K: k, Eps: eps, Delta: delta}
	switch strings.ToLower(mode) {
	case "forall":
		p.Mode = itemsketch.ForAll
	case "foreach":
		p.Mode = itemsketch.ForEach
	default:
		return p, fmt.Errorf("unknown mode %q", mode)
	}
	switch strings.ToLower(task) {
	case "estimator":
		p.Task = itemsketch.Estimator
	case "indicator":
		p.Task = itemsketch.Indicator
	default:
		return p, fmt.Errorf("unknown task %q", task)
	}
	return p, p.Validate()
}

func cmdSketch(args []string) error {
	fs := flag.NewFlagSet("sketch", flag.ExitOnError)
	in := fs.String("in", "", "transactions file (required)")
	d := fs.Int("d", 0, "number of attribute columns (required)")
	out := fs.String("out", "", "output sketch file (required)")
	k := fs.Int("k", 2, "itemset size")
	eps := fs.Float64("eps", 0.05, "precision")
	delta := fs.Float64("delta", 0.05, "failure probability")
	mode := fs.String("mode", "forall", "forall|foreach")
	task := fs.String("task", "estimator", "estimator|indicator")
	algo := fs.String("algo", "auto", "auto|subsample|release-db|release-answers")
	seed := fs.Uint64("seed", 1, "sketching randomness seed")
	compress := fs.Bool("compress", false, "flate-compress the sketch payload")
	fs.Parse(args)
	if *in == "" || *out == "" || *d <= 0 {
		return errors.New("sketch: -in, -d and -out are required")
	}
	p, err := parseParams(*k, *eps, *delta, *mode, *task)
	if err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	db, err := itemsketch.ReadTransactions(f, *d)
	if err != nil {
		return err
	}
	opts := []itemsketch.BuildOption{itemsketch.WithParams(p), itemsketch.WithSeed(*seed)}
	switch *algo {
	case "auto":
		// No WithAlgorithm: the Theorem 12 planner picks.
	case "subsample":
		opts = append(opts, itemsketch.WithAlgorithm(itemsketch.Subsample{}))
	case "release-db":
		opts = append(opts, itemsketch.WithAlgorithm(itemsketch.ReleaseDB{}))
	case "release-answers":
		opts = append(opts, itemsketch.WithAlgorithm(itemsketch.ReleaseAnswers{}))
	case "importance-sample":
		opts = append(opts, itemsketch.WithAlgorithm(itemsketch.ImportanceSample{}))
	default:
		return fmt.Errorf("unknown algo %q", *algo)
	}
	sk, plan, err := itemsketch.Build(context.Background(), db, opts...)
	if err != nil {
		return err
	}
	if *algo == "auto" {
		fmt.Printf("planner: release-db=%.0f release-answers=%.0f subsample=%.0f bits -> %s\n",
			plan.Costs["release-db"], plan.Costs["release-answers"], plan.Costs["subsample"],
			plan.Winner.Name())
	}
	var mopts []itemsketch.MarshalOption
	if *compress {
		mopts = append(mopts, itemsketch.WithCompression())
	}
	// The sketch streams to disk chunk by chunk; nothing buffers the
	// whole payload, so RELEASE-DB sketches at census scale spill
	// straight through. atomicfile stages the stream in a temp file
	// that is fsynced and renamed over the destination, so a crash or
	// I/O error mid-write never leaves a torn sketch under *out.
	var written int64
	err = atomicfile.Write(*out, func(w io.Writer) error {
		var werr error
		written, werr = itemsketch.MarshalTo(w, sk, mopts...)
		return werr
	})
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s sketch, %d bits (%.1f KB payload, %.1f KB on disk) for %d rows x %d cols\n",
		*out, sk.Name(), sk.SizeBits(), float64(sk.SizeBits())/8192, float64(written)/1024, db.NumRows(), db.NumCols())
	return nil
}

// Sketch files are the MarshalTo envelope verbatim (version 1 or 2),
// decoded through the streaming path so only one chunk is buffered.
// Files written before the envelope existed (8-byte little-endian bit
// count, then the packed bits) are still readable through the legacy
// raw fallback below — the public MarshalRaw/UnmarshalRaw wrappers are
// gone, but the CLI keeps decoding old files by driving the core
// decoder over the bare bit stream, which needs the whole file in
// memory.
func readSketchFile(path string) (itemsketch.Sketch, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sk, serr := itemsketch.UnmarshalFrom(f)
	f.Close()
	if serr == nil || !errors.Is(serr, itemsketch.ErrCorruptSketch) {
		return sk, serr
	}
	// Not a (valid) envelope: try the pre-envelope format directly —
	// the envelope decode already failed, so only the legacy
	// interpretation is left, and its failure reports the envelope
	// error (the likelier diagnosis).
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) >= 8 {
		if bits := binary.LittleEndian.Uint64(raw[:8]); bits <= uint64(len(raw)-8)*8 {
			if legacy, lerr := core.UnmarshalSketch(bitvec.NewReader(raw[8:], int(bits))); lerr == nil {
				return legacy, nil
			}
		}
	}
	return nil, serr
}

func parseItems(s string) (itemsketch.Itemset, error) {
	if s == "" {
		return itemsketch.Itemset{}, errors.New("empty itemset")
	}
	parts := strings.Split(s, ",")
	attrs := make([]int, 0, len(parts))
	for _, p := range parts {
		a, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return itemsketch.Itemset{}, fmt.Errorf("bad attribute %q: %v", p, err)
		}
		attrs = append(attrs, a)
	}
	return itemsketch.NewItemset(attrs...)
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	path := fs.String("sketch", "", "sketch file (required)")
	items := fs.String("items", "", "comma-separated attributes (required)")
	fs.Parse(args)
	if *path == "" || *items == "" {
		return errors.New("query: -sketch and -items are required")
	}
	sk, err := readSketchFile(*path)
	if err != nil {
		return err
	}
	T, err := parseItems(*items)
	if err != nil {
		return err
	}
	if d := sk.NumAttrs(); T.MaxAttr() >= d {
		return fmt.Errorf("query: %w: attribute %d out of range, the sketch has d = %d columns", itemsketch.ErrInvalidParams, T.MaxAttr(), d)
	}
	p := sk.Params()
	fmt.Printf("sketch: %s %v\n", sk.Name(), p)
	ctx := context.Background()
	q := itemsketch.QuerySketch(sk)
	switch est, err := q.Estimate(ctx, T); {
	case err == nil:
		fmt.Printf("estimate f(%v) = %.5f\n", T, est)
	case errors.Is(err, itemsketch.ErrTaskMismatch):
		// Indicator-only sketch: the Contains answer below is all it has.
	default:
		return err
	}
	frequent, err := q.Contains(ctx, T)
	if err != nil {
		return err
	}
	fmt.Printf("frequent(%v) at eps=%g: %v\n", T, p.Eps, frequent)
	return nil
}

func cmdMine(args []string) error {
	fs := flag.NewFlagSet("mine", flag.ExitOnError)
	path := fs.String("sketch", "", "sketch file (required)")
	minsup := fs.Float64("minsup", 0.1, "minimum support")
	maxk := fs.Int("maxk", 3, "maximum itemset size")
	rules := fs.Float64("rules", 0, "if > 0, also derive rules at this confidence")
	fs.Parse(args)
	if *path == "" {
		return errors.New("mine: -sketch is required")
	}
	sk, err := readSketchFile(*path)
	if err != nil {
		return err
	}
	rs, err := itemsketch.AprioriContext(context.Background(), itemsketch.QuerySketch(sk), *minsup, *maxk)
	if err != nil {
		if errors.Is(err, itemsketch.ErrTaskMismatch) {
			return fmt.Errorf("mine: %s sketch does not support estimates (indicator-only)", sk.Name())
		}
		return err
	}
	fmt.Printf("%d frequent itemsets at minsup=%g (maxk=%d):\n", len(rs), *minsup, *maxk)
	for _, r := range rs {
		fmt.Printf("  %-20v %.4f\n", r.Items, r.Freq)
	}
	if *rules > 0 {
		rl := itemsketch.AssociationRules(rs, *rules)
		fmt.Printf("%d rules at confidence >= %g:\n", len(rl), *rules)
		for _, r := range rl {
			fmt.Printf("  %v => %v  conf=%.3f lift=%.2f sup=%.3f\n",
				r.Antecedent, r.Consequent, r.Confidence, r.Lift, r.Support)
		}
	}
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	path := fs.String("sketch", "", "sketch file (required)")
	fs.Parse(args)
	if *path == "" {
		return errors.New("info: -sketch is required")
	}
	// One file handle for both passes: the envelope walk (header,
	// framing, checksums — cheap, no decode) and the decode that
	// yields the sketch's own view of its parameters. The decode
	// streams from a rewind of the same descriptor, so the file is
	// opened once and never buffered whole.
	f, err := os.Open(*path)
	if err != nil {
		return err
	}
	defer f.Close()
	env, ierr := itemsketch.InspectFrom(f)
	switch {
	case ierr == nil && env.Version >= 2:
		comp := "uncompressed"
		if env.Compressed {
			comp = "flate-compressed"
		}
		fmt.Printf("envelope:   v%d %s, %d payload bits, %d chunks x %d bytes, %s\n",
			env.Version, env.Kind, env.PayloadBits, env.Chunks, env.ChunkBytes, comp)
	case ierr == nil:
		fmt.Printf("envelope:   v%d %s, %d payload bits, crc %08x\n",
			env.Version, env.Kind, env.PayloadBits, env.Checksum)
	case errors.Is(ierr, itemsketch.ErrUnsupportedVersion):
		return ierr
	default:
		fmt.Printf("envelope:   none (pre-envelope file)\n")
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	sk, err := itemsketch.UnmarshalFrom(f)
	if err != nil && errors.Is(err, itemsketch.ErrCorruptSketch) && ierr != nil {
		// Not an envelope at all: fall back to the pre-envelope format.
		sk, err = readSketchFile(*path)
	}
	if err != nil {
		return err
	}
	p := sk.Params()
	fmt.Printf("algorithm:  %s\n", sk.Name())
	fmt.Printf("params:     %v\n", p)
	fmt.Printf("attributes: %d\n", sk.NumAttrs())
	fmt.Printf("size:       %d bits (%.1f KB)\n", sk.SizeBits(), float64(sk.SizeBits())/8192)
	_, isEst := sk.(itemsketch.EstimatorSketch)
	fmt.Printf("estimates:  %v\n", isEst)
	return nil
}
