package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewPrefMapUniform(t *testing.T) {
	p := NewPrefMap(3, 4, 2)
	want := 1.0 / 8
	for i := 0; i < 3; i++ {
		for tt := 0; tt < 4; tt++ {
			for c := 0; c < 2; c++ {
				if got := p.At(i, tt, c); math.Abs(got-want) > 1e-12 {
					t.Fatalf("At(%d,%d,%d) = %v, want %v", i, tt, c, got, want)
				}
			}
		}
		if err := p.CheckInvariants(1e-9); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNewPrefMapRejectsBadShape(t *testing.T) {
	for _, args := range [][3]int{{-1, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPrefMap(%v) did not panic", args)
				}
			}()
			NewPrefMap(args[0], args[1], args[2])
		}()
	}
}

func TestMarginalsTrackMutations(t *testing.T) {
	p := NewPrefMap(1, 2, 3)
	p.Set(0, 1, 2, 0.9)
	wantCluster := 1.0/6 + 0.9
	if got := p.ClusterWeight(0, 2); math.Abs(got-wantCluster) > 1e-12 {
		t.Errorf("ClusterWeight = %v, want %v", got, wantCluster)
	}
	wantTime := 1.0/6*2 + 0.9
	if got := p.TimeWeight(0, 1); math.Abs(got-wantTime) > 1e-12 {
		t.Errorf("TimeWeight = %v, want %v", got, wantTime)
	}
	if got := p.PreferredCluster(0); got != 2 {
		t.Errorf("PreferredCluster = %d, want 2", got)
	}
	if got := p.PreferredTime(0); got != 1 {
		t.Errorf("PreferredTime = %d, want 1", got)
	}
	if got := p.RunnerUpCluster(0); got != 0 {
		t.Errorf("RunnerUpCluster = %d, want 0 (tie broken low)", got)
	}
}

func TestSetRejectsBadValues(t *testing.T) {
	p := NewPrefMap(1, 1, 1)
	for _, v := range []float64{-0.1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%v) did not panic", v)
				}
			}()
			p.Set(0, 0, 0, v)
		}()
	}
}

func TestNormalizeRestoresSum(t *testing.T) {
	p := NewPrefMap(2, 3, 2)
	p.MulCluster(0, 1, 50)
	p.Normalize(0)
	if err := p.CheckInvariants(1e-9); err != nil {
		t.Fatal(err)
	}
	if p.PreferredCluster(0) != 1 {
		t.Error("normalization changed the preferred cluster")
	}
}

func TestNormalizeZeroRowResetsUniform(t *testing.T) {
	p := NewPrefMap(1, 2, 2)
	p.Apply(0, func(t, c int, w float64) float64 { return 0 })
	p.Normalize(0)
	if err := p.CheckInvariants(1e-9); err != nil {
		t.Fatal(err)
	}
	if got := p.At(0, 0, 0); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("reset weight = %v, want 0.25", got)
	}
}

func TestConfidenceRatio(t *testing.T) {
	p := NewPrefMap(1, 1, 3)
	p.Set(0, 0, 0, 0.6)
	p.Set(0, 0, 1, 0.3)
	p.Set(0, 0, 2, 0.1)
	if got := p.Confidence(0); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("Confidence = %v, want 2", got)
	}
}

func TestConfidenceDegenerateCases(t *testing.T) {
	single := NewPrefMap(1, 2, 1)
	if got := single.Confidence(0); got != BigConfidence {
		t.Errorf("single-cluster confidence = %v", got)
	}
	p := NewPrefMap(1, 1, 2)
	p.Set(0, 0, 0, 1)
	p.Set(0, 0, 1, 0)
	if got := p.Confidence(0); got != BigConfidence {
		t.Errorf("zero-runner-up confidence = %v", got)
	}
	p.Set(0, 0, 0, 0)
	if got := p.Confidence(0); got != 1 {
		t.Errorf("all-zero confidence = %v, want 1", got)
	}
}

func TestBlendMovesDistribution(t *testing.T) {
	p := NewPrefMap(2, 1, 2)
	p.Set(0, 0, 0, 1)
	p.Set(0, 0, 1, 0)
	p.Set(1, 0, 0, 0)
	p.Set(1, 0, 1, 1)
	p.Blend(0, 1, 0.5)
	if got := p.At(0, 0, 0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("blended weight = %v, want 0.5", got)
	}
	// j must be untouched.
	if got := p.At(1, 0, 1); got != 1 {
		t.Errorf("source row changed: %v", got)
	}
}

func TestBlendRejectsBadWeight(t *testing.T) {
	p := NewPrefMap(2, 1, 1)
	defer func() {
		if recover() == nil {
			t.Error("Blend(1.5) did not panic")
		}
	}()
	p.Blend(0, 1, 1.5)
}

func TestCloneIndependent(t *testing.T) {
	p := NewPrefMap(1, 1, 2)
	q := p.Clone()
	q.Set(0, 0, 1, 0.9)
	if p.At(0, 0, 1) == 0.9 {
		t.Error("Clone shares storage")
	}
	if q.PreferredCluster(0) != 1 || p.PreferredCluster(0) != 0 {
		t.Error("marginals not independent")
	}
}

func TestPreferredSlices(t *testing.T) {
	p := NewPrefMap(2, 2, 2)
	p.MulCluster(1, 1, 10)
	p.MulTime(1, 1, 10)
	pc := p.PreferredClustersInto(make([]int, 2))
	pt := p.PreferredTimes()
	if pc[1] != 1 || pt[1] != 1 {
		t.Errorf("PreferredClusters=%v PreferredTimes=%v", pc, pt)
	}
	if pc[0] != 0 || pt[0] != 0 {
		t.Errorf("untouched row should prefer (0,0): %v %v", pc, pt)
	}
}

// Property: normalization restores the invariants after any sequence of
// non-negative multiplicative mutations.
func TestQuickNormalizeInvariant(t *testing.T) {
	f := func(seed int64, mutations uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewPrefMap(4, 5, 3)
		for k := 0; k < int(mutations%32); k++ {
			i := rng.Intn(4)
			switch rng.Intn(4) {
			case 0:
				p.Mul(i, rng.Intn(5), rng.Intn(3), rng.Float64()*4)
			case 1:
				p.MulCluster(i, rng.Intn(3), rng.Float64()*4)
			case 2:
				p.MulTime(i, rng.Intn(5), rng.Float64()*4)
			case 3:
				p.Add(i, rng.Intn(5), rng.Intn(3), rng.Float64())
			}
		}
		p.NormalizeAll()
		return p.CheckInvariants(1e-6) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: marginal caches always agree with a from-scratch recomputation.
func TestQuickMarginalsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewPrefMap(3, 4, 3)
		for k := 0; k < 20; k++ {
			p.Set(rng.Intn(3), rng.Intn(4), rng.Intn(3), rng.Float64())
			i := rng.Intn(3)
			c := rng.Intn(3)
			want := 0.0
			for tt := 0; tt < 4; tt++ {
				want += p.At(i, tt, c)
			}
			if math.Abs(p.ClusterWeight(i, c)-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
