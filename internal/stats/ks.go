// Package stats implements the two-sample Kolmogorov–Smirnov test used by
// the paper's obliviousness experiment (§VII-B, Table II): given runtime
// samples of the same method on two datasets, the test asks whether there is
// evidence the samples come from different distributions. Obliviousness
// predicts large p-values (no evidence).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// KSResult reports a two-sample Kolmogorov–Smirnov test.
type KSResult struct {
	// D is the KS statistic: the maximum distance between the two
	// empirical CDFs.
	D float64
	// P is the asymptotic two-sided p-value (Numerical Recipes
	// approximation with the Stephens small-sample correction).
	P float64
	// N1, N2 are the sample sizes.
	N1, N2 int
}

// KSTest runs the two-sample KS test on the given samples.
func KSTest(sample1, sample2 []float64) (KSResult, error) {
	n1, n2 := len(sample1), len(sample2)
	if n1 == 0 || n2 == 0 {
		return KSResult{}, fmt.Errorf("stats: KS test needs non-empty samples (got %d, %d)", n1, n2)
	}
	a := append([]float64(nil), sample1...)
	b := append([]float64(nil), sample2...)
	sort.Float64s(a)
	sort.Float64s(b)

	var d float64
	i, j := 0, 0
	for i < n1 && j < n2 {
		x1, x2 := a[i], b[j]
		if x1 <= x2 {
			i++
		}
		if x2 <= x1 {
			j++
		}
		diff := math.Abs(float64(i)/float64(n1) - float64(j)/float64(n2))
		if diff > d {
			d = diff
		}
	}

	ne := float64(n1) * float64(n2) / float64(n1+n2)
	sqrtNe := math.Sqrt(ne)
	lambda := (sqrtNe + 0.12 + 0.11/sqrtNe) * d
	return KSResult{D: d, P: kolmogorovQ(lambda), N1: n1, N2: n2}, nil
}

// kolmogorovQ evaluates Q_KS(λ) = 2 Σ_{k≥1} (-1)^{k-1} e^{-2k²λ²}, clamped
// to [0, 1].
func kolmogorovQ(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	sum := 0.0
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k)*float64(k)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	default:
		return p
	}
}

// Mean returns the arithmetic mean of the samples, or 0 for empty input.
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range samples {
		sum += s
	}
	return sum / float64(len(samples))
}
