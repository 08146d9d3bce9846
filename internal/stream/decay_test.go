package stream

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// sameAsMisraGries fails t unless dm (λ = 1) holds exactly mg's state:
// the same counters, the same total and the same heavy hitters.
func sameAsMisraGries(t *testing.T, where string, dm *DecayedMisraGries, mg *MisraGries) {
	t.Helper()
	n, items, counts := mg.Snapshot()
	dn, ditems, weights := dm.Snapshot()
	if dn != float64(n) {
		t.Fatalf("%s: total %v, misra-gries %d", where, dn, n)
	}
	if !reflect.DeepEqual(ditems, items) {
		t.Fatalf("%s: counter items %v, misra-gries %v", where, ditems, items)
	}
	for i, w := range weights {
		if w != float64(counts[i]) {
			t.Fatalf("%s: item %d weight %v, misra-gries %d", where, items[i], w, counts[i])
		}
	}
	for _, phi := range []float64{0.01, 0.04, 0.1, 0.2} {
		if got, want := dm.HeavyHitters(phi), mg.HeavyHitters(phi); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: heavy hitters at phi=%v: %v, misra-gries %v", where, phi, got, want)
		}
	}
}

// TestDecayedLambdaOneMatchesMisraGries pins the identity the service's
// whole-stream heavy hitters rest on: a decayed summary that never
// decays (λ = 1) is bit-identical to MisraGries — after every add and
// through every merge. With unit weights and whole counters the
// weighted update always decrements by exactly 1, as Misra–Gries does,
// and the merges subtract the same k-th largest counter.
func TestDecayedLambdaOneMatchesMisraGries(t *testing.T) {
	const d, rows, parts = 64, 20000, 4
	// perfbench-shaped rows: attribute a is present with probability
	// 0.4/(a+1)^0.9.
	var prob [d]float64
	for a := range prob {
		prob[a] = 0.4 / math.Pow(float64(a+1), 0.9)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		for _, k := range []int{8, 64} {
			r := rng.New(seed)
			var dms [parts]*DecayedMisraGries
			var mgs [parts]*MisraGries
			for i := range dms {
				dms[i], _ = NewDecayedMisraGries(d, k, 1, core.Params{})
				mgs[i], _ = NewMisraGries(k)
			}
			for i := 0; i < rows; i++ {
				p := i % parts
				for a, pa := range prob {
					if r.Float64() < pa {
						dms[p].Add(a)
						mgs[p].Add(a)
					}
				}
				if dms[p].N() != float64(mgs[p].N()) || dms[p].SizeCounters() != mgs[p].SizeCounters() {
					t.Fatalf("seed %d k %d row %d: decayed (n=%v, %d counters) diverged from misra-gries (n=%d, %d)",
						seed, k, i, dms[p].N(), dms[p].SizeCounters(), mgs[p].N(), mgs[p].SizeCounters())
				}
				if i%997 == 0 {
					sameAsMisraGries(t, "ingest", dms[p], mgs[p])
				}
			}
			dm, mg := dms[0], mgs[0]
			sameAsMisraGries(t, "part 0", dm, mg)
			for p := 1; p < parts; p++ {
				sameAsMisraGries(t, "part", dms[p], mgs[p])
				var err error
				if dm, err = MergeDecayed(dm, dms[p]); err != nil {
					t.Fatal(err)
				}
				if mg, err = MergeMG(mg, mgs[p]); err != nil {
					t.Fatal(err)
				}
				sameAsMisraGries(t, "merge", dm, mg)
			}
		}
	}
}
