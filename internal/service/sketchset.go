package service

import (
	"io"

	itemsketch "repro"
	"repro/internal/countsketch"
	"repro/internal/stream"
)

// sketchSet holds a shard's streaming summaries beside its reservoir,
// one slot per kind in checkpoint order. It is the only code that knows
// the kinds: which ones a config enables, how a row reaches each, how
// they freeze into a snapshot, and how each is checkpointed and checked
// against the config. A nil slot is a kind the config does not enable
// (or, in a set readKinds returns, one the checkpoint did not carry).
type sketchSet [numKinds]itemsketch.Sketch

// The kinds of a sketch set, in checkpoint order.
const (
	kindHeavy       = iota // whole-stream heavy hitters: a DecayedMisraGries at λ = 1
	kindCountSketch        // hierarchical count sketch (Config.CountSketch)
	kindWindow             // windowed reservoir (Config.Window)
	kindDecayed            // decayed heavy hitters over the window (Window.DecayK)
	numKinds
)

// kindNames label each kind's checkpoint section in errors.
var kindNames = [numKinds]string{"heavy-hitter", "count-sketch", "window", "decayed-summary"}

// newSketchSet builds a shard's empty set for cfg. csCfg is the
// service's resolved count-sketch config (nil when disabled) and
// winSeed the shard's window seed. The whole-stream heavy hitters are a
// Misra–Gries summary held as a decayed summary that never decays —
// bit-identical to stream.MisraGries, and a registered kind like the
// rest. With a count sketch configured no route reads that summary, so
// it is not built.
func newSketchSet(cfg Config, csCfg *countsketch.Config, winSeed uint64) (sketchSet, error) {
	var set sketchSet
	var err error
	switch {
	case csCfg != nil:
		set[kindCountSketch], err = countsketch.New(*csCfg)
	case cfg.HeavyK > 0:
		set[kindHeavy], err = stream.NewDecayedMisraGries(cfg.NumAttrs, cfg.HeavyK, 1, itemsketch.Params{})
	}
	if err != nil {
		return sketchSet{}, err
	}
	if wc := cfg.Window; wc != nil {
		set[kindWindow], err = stream.NewWindowedReservoir(cfg.NumAttrs, wc.Rows, wc.Buckets,
			wc.SampleCapacity, winSeed, cfg.Params)
		if err != nil {
			return sketchSet{}, err
		}
		if wc.DecayK >= 2 {
			set[kindDecayed], err = stream.NewDecayedMisraGries(cfg.NumAttrs, wc.DecayK, wc.DecayLambda, itemsketch.Params{})
			if err != nil {
				return sketchSet{}, err
			}
		}
	}
	return set, nil
}

// heavy, countSketch, window and decayed return one kind of the set,
// or nil when the set does not hold it.
func (set *sketchSet) heavy() *stream.DecayedMisraGries {
	m, _ := set[kindHeavy].(*stream.DecayedMisraGries)
	return m
}

func (set *sketchSet) countSketch() *countsketch.Sketch {
	cs, _ := set[kindCountSketch].(*countsketch.Sketch)
	return cs
}

func (set *sketchSet) window() *stream.WindowedReservoir {
	w, _ := set[kindWindow].(*stream.WindowedReservoir)
	return w
}

func (set *sketchSet) decayed() *stream.DecayedMisraGries {
	m, _ := set[kindDecayed].(*stream.DecayedMisraGries)
	return m
}

// add feeds a batch of rows to every kind. A window rotation means the
// window advanced one bucket: the decayed summary ticks on the same
// boundary, then sees the row that opened the new epoch.
func (set *sketchSet) add(rows [][]int) {
	heavy, cs, win, dec := set.heavy(), set.countSketch(), set.window(), set.decayed()
	for _, row := range rows {
		for _, a := range row {
			if heavy != nil {
				heavy.Add(a)
			}
			if cs != nil {
				cs.Add(a)
			}
		}
		if win != nil && win.AddAttrs(row...) && dec != nil {
			dec.Tick()
		}
		if dec != nil {
			dec.AddAttrs(row...)
		}
	}
}

// clone freezes the set into an independent copy for a snapshot.
func (set *sketchSet) clone() sketchSet {
	var out sketchSet
	for i, sk := range set {
		switch k := sk.(type) {
		case *stream.DecayedMisraGries:
			out[i] = k.Clone()
		case *countsketch.Sketch:
			out[i] = k.Clone()
		case *stream.WindowedReservoir:
			out[i] = k.Clone()
		}
	}
	return out
}

// adopt replaces every kind found carries; the others keep their state.
func (set *sketchSet) adopt(found sketchSet) {
	for i, sk := range found {
		if sk != nil {
			set[i] = sk
		}
	}
}

// writeKinds streams the set's checkpoint sections: per kind, in order,
// a presence byte and, when present, the kind's registered envelope.
func writeKinds(w io.Writer, set *sketchSet) error {
	for _, sk := range set {
		if sk == nil {
			if _, err := w.Write([]byte{0}); err != nil {
				return err
			}
			continue
		}
		if _, err := w.Write([]byte{1}); err != nil {
			return err
		}
		if _, err := itemsketch.MarshalTo(w, sk); err != nil {
			return err
		}
	}
	return nil
}

// readKinds decodes the sections writeKinds wrote into a set holding
// only the kinds the checkpoint carries. want is the freshly built set
// of the running config: a section for a kind want lacks, or one built
// with another geometry, seed or parameters, is corrupt, because a
// summary restarted onto other hashes or another window could never
// merge with its peers again.
func readKinds(r io.Reader, want sketchSet) (sketchSet, error) {
	var got sketchSet
	for i := range got {
		var flag [1]byte
		if err := readSection(r, flag[:], kindNames[i]+" flag missing"); err != nil {
			return sketchSet{}, err
		}
		switch {
		case flag[0] == 0:
			continue // a kind the file lacks starts empty
		case flag[0] != 1:
			return sketchSet{}, ckptCorruptf("%s flag = %d", kindNames[i], flag[0])
		case want[i] == nil:
			return sketchSet{}, ckptCorruptf("carries a %s section but the config has none", kindNames[i])
		}
		sk, err := itemsketch.UnmarshalFrom(r)
		if err != nil {
			return sketchSet{}, err
		}
		if !sameShape(sk, want[i]) {
			return sketchSet{}, ckptCorruptf("%s section holds a %s built with another geometry, seed or parameters",
				kindNames[i], sk.Name())
		}
		got[i] = sk
	}
	return got, nil
}

// sameShape reports whether got is the same kind as want, built with the
// same geometry, seed and parameters.
func sameShape(got, want itemsketch.Sketch) bool {
	switch w := want.(type) {
	case *stream.DecayedMisraGries:
		g, ok := got.(*stream.DecayedMisraGries)
		return ok && g.NumAttrs() == w.NumAttrs() && g.K() == w.K() &&
			g.Lambda() == w.Lambda() && g.Params() == w.Params()
	case *countsketch.Sketch:
		// Compared against the built sketch, not the service's config:
		// Config() carries the resolved geometry defaults and derived
		// params a raw config may leave zero.
		g, ok := got.(*countsketch.Sketch)
		return ok && g.Config() == w.Config()
	case *stream.WindowedReservoir:
		g, ok := got.(*stream.WindowedReservoir)
		return ok && g.NumAttrs() == w.NumAttrs() && g.WindowRows() == w.WindowRows() &&
			g.Buckets() == w.Buckets() && g.Capacity() == w.Capacity() &&
			g.Seed() == w.Seed() && g.Params() == w.Params()
	}
	return false
}
