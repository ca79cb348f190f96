package cliutil

import (
	"math"
	"strings"
	"testing"
)

func TestParseDistOK(t *testing.T) {
	cases := map[string]string{
		"weibull:40,3":      "Weibull(40,3)",
		"pareto:2,10":       "Pareto(2,10)",
		"geometric:0.2":     "Geometric(0.2)",
		"deterministic:7":   "Deterministic(7)",
		"uniform:3,9":       "UniformInt(3,9)",
		"markov:0.7,0.6":    "MarkovRenewal(a=0.7,b=0.6)",
		" WEIBULL : 40, 3 ": "Weibull(40,3)", // whitespace and case
	}
	for spec, wantName := range cases {
		d, err := ParseDist(spec)
		if err != nil {
			t.Errorf("ParseDist(%q): %v", spec, err)
			continue
		}
		if d.Name() != wantName {
			t.Errorf("ParseDist(%q) = %s, want %s", spec, d.Name(), wantName)
		}
	}
}

func TestParseDistErrors(t *testing.T) {
	for _, spec := range []string{
		"", ":1,2", "nope:1", "weibull:40", "weibull:40,3,5",
		"weibull:abc,3", "pareto:0.5,10", "geometric:2",
		// Found by FuzzParseDist: p^k underflows (an all-zero PMF), and
		// a k whose O(k) sampler never returns in practice.
		"negbinomial:2000,0.5", "negbinomial:1e9,1",
	} {
		if _, err := ParseDist(spec); err == nil {
			t.Errorf("ParseDist(%q) succeeded", spec)
		}
	}
}

func TestParseRechargeOK(t *testing.T) {
	cases := map[string]float64{
		"bernoulli:0.5,1":   0.5,
		"periodic:5,10":     0.5,
		"constant:0.5":      0.5,
		"onoff:1.5,0.1,0.1": 0.75,
	}
	for spec, wantMean := range cases {
		mk, err := ParseRecharge(spec)
		if err != nil {
			t.Errorf("ParseRecharge(%q): %v", spec, err)
			continue
		}
		r := mk()
		if math.Abs(r.Mean()-wantMean) > 1e-9 {
			t.Errorf("ParseRecharge(%q).Mean() = %v, want %v", spec, r.Mean(), wantMean)
		}
		// Factories must return fresh instances.
		if mk() == r && !strings.HasPrefix(spec, "constant") && !strings.HasPrefix(spec, "bernoulli") {
			t.Errorf("ParseRecharge(%q) reuses stateful instances", spec)
		}
	}
}

func TestParseRechargeGaussianMean(t *testing.T) {
	mk, err := ParseRecharge("gaussian:1,0.1")
	if err != nil {
		t.Fatal(err)
	}
	if m := mk().Mean(); math.Abs(m-1) > 0.01 {
		t.Fatalf("gaussian mean %v, want ~1", m)
	}
}

func TestParseRechargeErrors(t *testing.T) {
	for _, spec := range []string{
		"", "wat:1", "bernoulli:0.5", "bernoulli:2,1", "periodic:5",
		"constant:-1", "onoff:1,0,0.5",
		// Found by FuzzParseRecharge: infinite deliveries.
		"constant:Inf", "bernoulli:0.5,Inf", "periodic:Inf,3", "gaussian:Inf,1", "onoff:Inf,0.5,0.5",
	} {
		if _, err := ParseRecharge(spec); err == nil {
			t.Errorf("ParseRecharge(%q) succeeded", spec)
		}
	}
}

func TestParseDistLogNormal(t *testing.T) {
	d, err := ParseDist("lognormal:3,0.4")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "LogNormal(3,0.4)" {
		t.Fatalf("name %s", d.Name())
	}
	if _, err := ParseDist("lognormal:3"); err == nil {
		t.Fatal("missing sigma accepted")
	}
}

func TestParseDistNegBinomial(t *testing.T) {
	d, err := ParseDist("negbinomial:4,0.3")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "NegBinomial(k=4,p=0.3)" {
		t.Fatalf("name %s", d.Name())
	}
	if _, err := ParseDist("erlang:2,0.5"); err != nil {
		t.Fatalf("erlang alias rejected: %v", err)
	}
	if _, err := ParseDist("negbinomial:0,0.5"); err == nil {
		t.Fatal("k=0 accepted")
	}
}
