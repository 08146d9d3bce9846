package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	itemsketch "repro"
	"repro/internal/atomicfile"
	"repro/internal/bitvec"
	"repro/internal/faultio"
)

func TestParseItems(t *testing.T) {
	got, err := parseItems("3, 1,7")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(itemsketch.MustItemset(1, 3, 7)) {
		t.Fatalf("parseItems = %v", got)
	}
	if _, err := parseItems(""); err == nil {
		t.Error("empty should fail")
	}
	if _, err := parseItems("1,x"); err == nil {
		t.Error("non-numeric should fail")
	}
	if _, err := parseItems("1,1"); err == nil {
		t.Error("duplicate should fail")
	}
}

func TestParseParams(t *testing.T) {
	p, err := parseParams(2, 0.1, 0.05, "forall", "indicator")
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != itemsketch.ForAll || p.Task != itemsketch.Indicator {
		t.Fatalf("parseParams = %+v", p)
	}
	if _, err := parseParams(2, 0.1, 0.05, "sometimes", "indicator"); err == nil {
		t.Error("bad mode should fail")
	}
	if _, err := parseParams(2, 0.1, 0.05, "forall", "oracle"); err == nil {
		t.Error("bad task should fail")
	}
	if _, err := parseParams(0, 0.1, 0.05, "forall", "indicator"); err == nil {
		t.Error("invalid k should fail")
	}
}

func TestSketchFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := itemsketch.NewDatabase(8)
	for i := 0; i < 200; i++ {
		db.AddRowAttrs(i%8, (i+3)%8)
	}
	p := itemsketch.Params{K: 2, Eps: 0.1, Delta: 0.1,
		Mode: itemsketch.ForAll, Task: itemsketch.Estimator}
	sk, err := itemsketch.Subsample{Seed: 1}.Sketch(db, p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "s.bin")
	if err := os.WriteFile(path, itemsketch.Marshal(sk), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readSketchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	T := itemsketch.MustItemset(1, 4)
	if got.(itemsketch.EstimatorSketch).Estimate(T) != sk.(itemsketch.EstimatorSketch).Estimate(T) {
		t.Fatal("estimate changed across file round trip")
	}

	// Files from the pre-envelope format (8-byte bit count + raw
	// payload) still read through the legacy fallback.
	var w bitvec.Writer
	sk.MarshalBits(&w)
	raw, bits := w.Bytes(), w.BitLen()
	hdr := make([]byte, 8)
	for i := 0; i < 8; i++ {
		hdr[i] = byte(uint64(bits) >> (8 * i))
	}
	legacy := filepath.Join(dir, "legacy.bin")
	if err := os.WriteFile(legacy, append(hdr, raw...), 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := readSketchFile(legacy)
	if err != nil {
		t.Fatalf("legacy read: %v", err)
	}
	if old.(itemsketch.EstimatorSketch).Estimate(T) != sk.(itemsketch.EstimatorSketch).Estimate(T) {
		t.Fatal("estimate changed across legacy round trip")
	}
}

func TestReadSketchFileErrors(t *testing.T) {
	dir := t.TempDir()
	short := filepath.Join(dir, "short.bin")
	if err := os.WriteFile(short, []byte{1, 2}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readSketchFile(short); err == nil {
		t.Error("short file should fail")
	}
	if _, err := readSketchFile(filepath.Join(dir, "missing.bin")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestCommandsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	// Write a transaction file.
	tx := filepath.Join(dir, "baskets.txt")
	content := ""
	for i := 0; i < 300; i++ {
		if i%2 == 0 {
			content += "0 1 5\n"
		} else {
			content += "2\n"
		}
	}
	if err := os.WriteFile(tx, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "s.bin")
	if err := cmdSketch([]string{"-in", tx, "-d", "8", "-out", out, "-k", "2", "-eps", "0.05", "-algo", "subsample"}); err != nil {
		t.Fatalf("cmdSketch: %v", err)
	}
	if err := cmdQuery([]string{"-sketch", out, "-items", "0,1"}); err != nil {
		t.Fatalf("cmdQuery: %v", err)
	}
	if err := cmdMine([]string{"-sketch", out, "-minsup", "0.3", "-maxk", "2", "-rules", "0.5"}); err != nil {
		t.Fatalf("cmdMine: %v", err)
	}
	if err := cmdInfo([]string{"-sketch", out}); err != nil {
		t.Fatalf("cmdInfo: %v", err)
	}
	// Missing required flags error out.
	if err := cmdSketch([]string{"-d", "8"}); err == nil {
		t.Error("missing -in/-out should fail")
	}
	if err := cmdQuery([]string{"-sketch", out}); err == nil {
		t.Error("missing -items should fail")
	}
	// An attribute past the sketch's d = 8 columns is an input error,
	// not a panic; the last column still answers.
	if err := cmdQuery([]string{"-sketch", out, "-items", "7"}); err != nil {
		t.Errorf("cmdQuery last column: %v", err)
	}
	for _, items := range []string{"8", "0,99"} {
		if err := cmdQuery([]string{"-sketch", out, "-items", items}); !errors.Is(err, itemsketch.ErrInvalidParams) {
			t.Errorf("cmdQuery -items %s: got %v, want ErrInvalidParams", items, err)
		}
	}
	if err := cmdMine([]string{}); err == nil {
		t.Error("missing -sketch should fail")
	}
	if err := cmdInfo([]string{}); err == nil {
		t.Error("missing -sketch should fail")
	}
	// Unknown algo.
	if err := cmdSketch([]string{"-in", tx, "-d", "8", "-out", out, "-algo", "magic"}); err == nil {
		t.Error("unknown algo should fail")
	}
}

// TestSketchSaveFaultKilledMidStream pins the crash-safety of the save
// path: sketches go to disk through atomicfile (temp + fsync + rename),
// so a write torn mid-stream — here injected with faultio at several
// offsets, including inside the envelope header — must leave a
// previously saved sketch byte-identical and still decodable.
func TestSketchSaveFaultKilledMidStream(t *testing.T) {
	dir := t.TempDir()
	tx := filepath.Join(dir, "tx.txt")
	if err := os.WriteFile(tx, []byte("0 1\n2 3\n0 3\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "sk.bin")
	if err := cmdSketch([]string{"-in", tx, "-d", "8", "-out", out, "-algo", "subsample"}); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := readSketchFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{0, 5, 17, 40, int64(len(old)) - 1} {
		werr := atomicfile.Write(out, func(w io.Writer) error {
			fw := faultio.NewWriter(w, faultio.WithFailAt(off, nil))
			_, merr := itemsketch.MarshalTo(fw, sk)
			return merr
		})
		if !errors.Is(werr, faultio.ErrInjected) {
			t.Fatalf("tear at %d: want injected failure, got %v", off, werr)
		}
		now, rerr := os.ReadFile(out)
		if rerr != nil {
			t.Fatalf("tear at %d: saved sketch unreadable: %v", off, rerr)
		}
		if !bytes.Equal(now, old) {
			t.Fatalf("tear at %d clobbered the saved sketch", off)
		}
		if _, derr := readSketchFile(out); derr != nil {
			t.Fatalf("tear at %d: saved sketch no longer decodes: %v", off, derr)
		}
	}
}
