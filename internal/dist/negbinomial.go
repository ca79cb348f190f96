package dist

import (
	"fmt"
	"math"

	"eventcap/internal/rng"
)

// NegBinomial is the discrete Erlang: the sum of k independent
// Geometric(p) stages, supported on slots k, k+1, ... Its hazard rises
// from 0 toward p, giving an IFR family that is exactly computable in
// closed form — a useful test bed between the deterministic and
// geometric extremes (k = 1 recovers Geometric(p); k → ∞ with k/p fixed
// approaches Deterministic).
type NegBinomial struct {
	k    int
	p    float64
	mean float64
	name string

	pmf []float64 // pmf[n] = P(X = k+n), precomputed to negligible tail
	cdf []float64
}

var _ Interarrival = (*NegBinomial)(nil)

// maxNegBinomialStages bounds k: Sample draws one geometric stage per
// unit of k.
const maxNegBinomialStages = 1 << 20

// NewNegBinomial constructs the distribution with k in
// [1, maxNegBinomialStages] stages of success probability p in (0, 1],
// rejecting the pairs whose first mass p^k underflows. The PMF table is precomputed at
// construction so the value methods are read-only (and concurrency-safe).
func NewNegBinomial(k int, p float64) (*NegBinomial, error) {
	if k < 1 || k > maxNegBinomialStages {
		return nil, fmt.Errorf("dist: NegBinomial needs 1 <= k <= %d stages, got %d", maxNegBinomialStages, k)
	}
	if !(p > 0) || p > 1 {
		return nil, fmt.Errorf("dist: NegBinomial stage probability must be in (0,1], got %g", p)
	}
	nb := &NegBinomial{
		k:    k,
		p:    p,
		mean: float64(k) / p,
		name: fmt.Sprintf("NegBinomial(k=%d,p=%g)", k, p),
	}
	// Stable recurrence from P(X = k) = p^k:
	// pmf(slot+1)/pmf(slot) = (slot/(slot+1−k))·(1−p).
	cur := math.Pow(p, float64(k))
	if !(cur > 0) {
		return nil, fmt.Errorf("dist: NegBinomial(k=%d,p=%g) is not representable: P(X = k) = p^k underflows to 0", k, p)
	}
	cum := cur
	nb.pmf = append(nb.pmf, cur)
	nb.cdf = append(nb.cdf, cum)
	for slot := k; 1-cum > 1e-15 && len(nb.pmf) < 1<<22; slot++ {
		cur *= float64(slot) / float64(slot+1-k) * (1 - p)
		cum += cur
		nb.pmf = append(nb.pmf, cur)
		nb.cdf = append(nb.cdf, cum)
	}
	return nb, nil
}

// PMF implements Interarrival.
func (nb *NegBinomial) PMF(i int) float64 {
	n := i - nb.k
	if n < 0 || n >= len(nb.pmf) {
		return 0
	}
	return nb.pmf[n]
}

// CDF implements Interarrival.
func (nb *NegBinomial) CDF(i int) float64 {
	n := i - nb.k
	switch {
	case n < 0:
		return 0
	case n >= len(nb.cdf):
		return 1
	default:
		v := nb.cdf[n]
		if v > 1 {
			return 1
		}
		return v
	}
}

// Hazard implements Interarrival.
func (nb *NegBinomial) Hazard(i int) float64 { return hazardFromCDF(nb, i) }

// Mean implements Interarrival: k/p exactly.
func (nb *NegBinomial) Mean() float64 { return nb.mean }

// Sample implements Interarrival: sum of k geometric stage draws.
func (nb *NegBinomial) Sample(src *rng.Source) int {
	total := 0
	for s := 0; s < nb.k; s++ {
		if nb.p == 1 { // floateq:ok exact boundary constant: a sure success needs no draw
			total++
			continue
		}
		u := src.Float64()
		g := int(math.Ceil(math.Log1p(-u) / math.Log(1-nb.p)))
		if g < 1 {
			g = 1
		}
		total += g
	}
	return total
}

// Name implements Interarrival.
func (nb *NegBinomial) Name() string { return nb.name }

// CacheKey implements Keyed; the name embeds both parameters at
// round-trip precision.
func (nb *NegBinomial) CacheKey() string { return nb.name }

// StageCount returns k.
func (nb *NegBinomial) StageCount() int { return nb.k }
