package stats

import (
	"math/rand"
	"testing"
)

func TestKSIdenticalSamples(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	res, err := KSTest(s, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.D != 0 {
		t.Errorf("D = %v, want 0 for identical samples", res.D)
	}
	if res.P < 0.99 {
		t.Errorf("P = %v, want ≈1 for identical samples", res.P)
	}
}

func TestKSSameDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 200)
	b := make([]float64, 200)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	res, err := KSTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.05 {
		t.Errorf("P = %v; same-distribution samples flagged as different", res.P)
	}
}

func TestKSDifferentDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := make([]float64, 200)
	b := make([]float64, 200)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64() + 2 // shifted mean
	}
	res, err := KSTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 0.001 {
		t.Errorf("P = %v; clearly different distributions not detected", res.P)
	}
	if res.D < 0.5 {
		t.Errorf("D = %v, expected a large statistic", res.D)
	}
}

func TestKSSmallSamplesLikePaper(t *testing.T) {
	// The paper uses 9 runs per group; make sure small samples behave.
	a := []float64{1.0, 1.1, 0.9, 1.05, 0.95, 1.02, 0.98, 1.01, 0.99}
	b := []float64{1.02, 0.97, 1.04, 0.96, 1.0, 1.03, 0.98, 1.01, 1.0}
	res, err := KSTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.35 {
		t.Errorf("P = %v; similar small samples should give the paper's large p-values", res.P)
	}
	if res.N1 != 9 || res.N2 != 9 {
		t.Errorf("sizes = %d, %d", res.N1, res.N2)
	}
}

func TestKSEmptyInput(t *testing.T) {
	if _, err := KSTest(nil, []float64{1}); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := KSTest([]float64{1}, nil); err == nil {
		t.Error("empty sample accepted")
	}
}

func TestKSUnequalSizes(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 2, 3, 4, 5}
	res, err := KSTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0 || res.P > 1 {
		t.Errorf("P = %v out of range", res.P)
	}
}

func TestKSStatisticExactValue(t *testing.T) {
	// CDFs: a jumps at 1,2; b jumps at 3,4 → D must be 1.
	res, err := KSTest([]float64{1, 2}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.D != 1 {
		t.Errorf("D = %v, want 1 for disjoint supports", res.D)
	}
}

func TestMeanStdDev(t *testing.T) {
	s := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(s); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if Mean(nil) != 0 {
		t.Error("degenerate inputs not handled")
	}
}
