package cliutil

import (
	"math"
	"testing"

	"eventcap/internal/rng"
)

// inUnit reports whether p is a probability.
func inUnit(p float64) bool { return p >= 0 && p <= 1 }

// FuzzParseDist feeds arbitrary specs to ParseDist. It must never
// panic, and whatever it accepts must be usable: a name, a finite mean
// of at least one slot, probabilities in [0,1] and samples of at least
// one slot.
func FuzzParseDist(f *testing.F) {
	for _, spec := range []string{
		"weibull:40,3", "pareto:2,10", "geometric:0.2", "deterministic:7",
		"uniform:3,9", "markov:0.7,0.6", "lognormal:3,0.4", "negbinomial:4,0.3",
		"erlang:2,0.5", " WEIBULL : 40, 3 ", "weibull:40", "pareto:0.5,10",
		"uniform:9,3", "deterministic:-1", "geometric:NaN", "weibull:Inf,3",
		"markov:1,0", ":1", "",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		d, err := ParseDist(spec)
		if err != nil {
			return
		}
		if d == nil || d.Name() == "" {
			t.Fatalf("ParseDist(%q) accepted without a usable value", spec)
		}
		if m := d.Mean(); !(m >= 1) || math.IsInf(m, 0) {
			t.Fatalf("ParseDist(%q) = %s: mean %v, want finite and >= 1", spec, d.Name(), m)
		}
		for _, i := range []int{0, 1, 2, 10, 1000} {
			if p, c, h := d.PMF(i), d.CDF(i), d.Hazard(i); !inUnit(p) || !inUnit(c) || !inUnit(h) {
				t.Fatalf("ParseDist(%q) = %s at %d: pmf %v cdf %v hazard %v outside [0,1]", spec, d.Name(), i, p, c, h)
			}
		}
		src := rng.New(1, 0xf2)
		for range 8 {
			if x := d.Sample(src); x < 1 {
				t.Fatalf("ParseDist(%q) = %s sampled %d, want >= 1", spec, d.Name(), x)
			}
		}
	})
}

// FuzzParseRecharge feeds arbitrary specs to ParseRecharge. It must
// never panic, and whatever it accepts must build processes with a
// name, a finite non-negative mean and finite non-negative deliveries.
func FuzzParseRecharge(f *testing.F) {
	for _, spec := range []string{
		"bernoulli:0.5,1", "periodic:5,10", "constant:0.5", "gaussian:1,0.1",
		"onoff:1.5,0.1,0.1", "bernoulli:0.5", "bernoulli:2,1", "periodic:5,0",
		"constant:-1", "onoff:1,0,0.5", "gaussian:NaN,1", "constant:Inf", "wat:1", "",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		mk, err := ParseRecharge(spec)
		if err != nil {
			return
		}
		r := mk()
		if r == nil || r.Name() == "" {
			t.Fatalf("ParseRecharge(%q) accepted without a usable value", spec)
		}
		if m := r.Mean(); !(m >= 0) || math.IsInf(m, 0) {
			t.Fatalf("ParseRecharge(%q) = %s: mean %v, want finite and >= 0", spec, r.Name(), m)
		}
		src := rng.New(1, 0xf3)
		for range 32 {
			if x := r.Next(src); !(x >= 0) || math.IsInf(x, 0) {
				t.Fatalf("ParseRecharge(%q) = %s delivered %v, want finite and >= 0", spec, r.Name(), x)
			}
		}
	})
}
