package core

// FuzzNormalize hammers Normalize with degenerate weight rows — all-zero,
// NaN/Inf injected, subnormal, single-cluster — injected directly into the
// backing array (below the Set-level validation the public API enforces).
// Whatever the input, Normalize must leave a well-defined distribution: no
// NaN anywhere, every weight in [0,1], the row summing to one, the marginal
// caches bit-identical to a recompute, every slot outside the time window
// exactly zero, and Confidence returning BigConfidence only in its
// documented cases. Every Normalize must also match the full-width
// reference of prefmap_window_test.go bit for bit, weights and marginals.
// A second round narrows the window (possibly to empty) with
// ZeroTimesOutside and normalizes again.

import (
	"encoding/binary"
	"math"
	"testing"
)

// fillRowFromBytes decodes data into instruction 0's weights, eight bytes
// per slot (cycling when data is short). Negative finite values flip to
// their absolute value — they are unreachable through the mutation API,
// which rejects negatives — while NaN and ±Inf pass through untouched so the
// degenerate paths are exercised. Writing below the API bypasses window
// maintenance, so the caller must hand over a map whose row 0 window is
// still full (a fresh NewPrefMap); every slot written then lies inside it.
// The row is materialized first, so it holds the cells written here.
func fillRowFromBytes(p *PrefMap, data []byte) {
	p.materialize(0)
	slots := p.T * p.C
	for k := 0; k < slots; k++ {
		v := 0.0
		if len(data) >= 8 {
			off := (k * 8) % (len(data) - 7)
			v = math.Float64frombits(binary.LittleEndian.Uint64(data[off : off+8]))
		} else if len(data) > 0 {
			v = float64(data[k%len(data)])
		}
		if v < 0 && !math.IsInf(v, -1) && !math.IsNaN(v) {
			v = -v
		}
		if math.IsInf(v, -1) {
			v = math.Inf(1)
		}
		p.w[k] = v
	}
	p.rows[0].dirty = true
}

func FuzzNormalize(f *testing.F) {
	// Seed corpus: the degenerate row classes the docs call out.
	zero := make([]byte, 8*6)
	f.Add(uint8(3), uint8(2), zero) // all-zero row: must reset uniform
	nan := make([]byte, 8*6)
	for k := 0; k < 6; k++ {
		binary.LittleEndian.PutUint64(nan[k*8:], math.Float64bits(math.NaN()))
	}
	f.Add(uint8(3), uint8(2), nan) // NaN-poisoned row
	inf := make([]byte, 8*4)
	binary.LittleEndian.PutUint64(inf[0:], math.Float64bits(math.Inf(1)))
	binary.LittleEndian.PutUint64(inf[8:], math.Float64bits(1.0))
	f.Add(uint8(2), uint8(2), inf) // Inf-poisoned row
	single := make([]byte, 8*3)
	binary.LittleEndian.PutUint64(single[0:], math.Float64bits(0.25))
	binary.LittleEndian.PutUint64(single[8:], math.Float64bits(4.0))
	f.Add(uint8(3), uint8(1), single) // single-cluster map
	sub := make([]byte, 8*2)
	binary.LittleEndian.PutUint64(sub[0:], math.Float64bits(5e-324))
	f.Add(uint8(1), uint8(2), sub) // subnormal total: 1/total overflows
	ordinary := make([]byte, 8*4)
	binary.LittleEndian.PutUint64(ordinary[0:], math.Float64bits(0.5))
	binary.LittleEndian.PutUint64(ordinary[8:], math.Float64bits(1.5))
	binary.LittleEndian.PutUint64(ordinary[16:], math.Float64bits(0.125))
	binary.LittleEndian.PutUint64(ordinary[24:], math.Float64bits(2.0))
	f.Add(uint8(2), uint8(2), ordinary)
	f.Add(uint8(10), uint8(22), ordinary) // T=3, C=6, second round window [1,2]
	f.Add(uint8(47), uint8(49), ordinary) // T=8, C=16, second round window [5,6]

	f.Fuzz(func(t *testing.T, tRaw, cRaw uint8, data []byte) {
		T := 1 + int(tRaw)%8
		C := 1 + int(cRaw)%17
		p, r := NewPrefMap(1, T, C), newRefMap(1, T, C)
		fillRowFromBytes(p, data)
		copy(r.w, p.w)
		opNormalize(0).do(p, r)
		checkNormalizedRow(t, p)
		checkAgainstRef(t, p, r, "first Normalize")

		// The high bits of the shape bytes pick a window [lo, hi], empty
		// when span is 0.
		lo := int(tRaw>>3) % T
		span := int(cRaw>>3) % (T - lo + 1)
		opThen(opZeroTimesOutside(0, lo, lo+span-1), opNormalize(0)).do(p, r)
		checkNormalizedRow(t, p)
		checkAgainstRef(t, p, r, "second Normalize")
	})
}

// checkNormalizedRow asserts instruction 0 of p holds a well-defined
// distribution after Normalize.
func checkNormalizedRow(t *testing.T, p *PrefMap) {
	t.Helper()
	T, C := p.Times(), p.Clusters()
	checkZeroOutsideWindow(t, p, "after Normalize")
	total := 0.0
	for tt := 0; tt < T; tt++ {
		for c := 0; c < C; c++ {
			w := p.At(0, tt, c)
			if math.IsNaN(w) {
				t.Fatalf("Normalize emitted NaN at (%d,%d)", tt, c)
			}
			// A dominant weight can land an ulp above 1 (w·(1/total)
			// rounds up); the invariant holds to the same tolerance
			// CheckInvariants uses.
			if w < 0 || w > 1+1e-9 {
				t.Fatalf("Normalize emitted %v at (%d,%d), outside [0,1]", w, tt, c)
			}
			total += w
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("row sums to %v after Normalize", total)
	}

	// The fused rescale claims bit-identical marginal caches.
	cs, ts := recomputeMarginals(p, 0)
	for c, want := range cs {
		if got := p.ClusterWeight(0, c); got != want {
			t.Fatalf("ClusterWeight(0,%d) = %v, recompute = %v", c, got, want)
		}
	}
	for tt, want := range ts {
		if got := p.TimeWeight(0, tt); got != want {
			t.Fatalf("TimeWeight(0,%d) = %v, recompute = %v", tt, got, want)
		}
	}

	// Confidence must be well-defined, and BigConfidence only in the
	// documented cases: no runner-up cluster, or a zero runner-up
	// marginal under a positive preferred marginal.
	conf := p.Confidence(0)
	if math.IsNaN(conf) {
		t.Fatal("Confidence is NaN after Normalize")
	}
	if conf == BigConfidence {
		if C >= 2 {
			top := p.ClusterWeight(0, p.PreferredCluster(0))
			run := p.ClusterWeight(0, p.RunnerUpCluster(0))
			if !(run <= 0 && top > 0) {
				t.Fatalf("BigConfidence with top=%v runner-up=%v violates the documented contract", top, run)
			}
		}
	} else if C < 2 {
		t.Fatalf("single-cluster map returned Confidence %v, want BigConfidence", conf)
	}
}
