package energy

import (
	"fmt"
	"math"

	"eventcap/internal/dist"
	"eventcap/internal/rng"
)

// Recharge produces the per-slot environmental energy e_t (paper Section
// III-A: random with mean e, exact law unknown to the policy). Give each
// simulated sensor its own instance; implementations are not safe for
// concurrent use. A stateful process (Periodic's phase, OnOff's state)
// must implement Reset, restoring its initial state, so the batch
// engine can reuse one instance across replications; a process without
// Reset is taken to be stateless and may be shared.
//
// FastForward applies n consecutive slots of recharge to a battery; the
// compiled engines use it to skip zero-activation sleep runs. The
// contract: afterwards the battery's externally visible totals (Level,
// Received, OverflowLost) match n sequential Recharge(Next(src)) calls.
// The match is bit for bit for deterministic processes (Constant,
// Periodic, Bernoulli with q of 0 or 1) and for processes that step Next
// once per slot (ClippedGaussian, OnOff), which also leave src exactly
// where the n calls would. Bernoulli with q in (0,1) draws the delivery
// count in one Binomial(n, q) sample instead, so it matches only in law
// and consumes src differently. Equality in law is sound during a sleep
// run because the level is monotone there: overflow depends only on the
// delivered total, never on where inside the run the deliveries land.
// Each sensor owns a dedicated recharge stream, so no other stream
// shifts.
type Recharge interface {
	// Next returns the energy harvested in the coming slot.
	Next(src *rng.Source) float64
	// FastForward advances the process by n slots, recharging b.
	FastForward(b *Battery, n int64, src *rng.Source)
	// Mean returns the long-run average rate e.
	Mean() float64
	// Name identifies the process, e.g. "Bernoulli(q=0.5,c=1)".
	Name() string
}

// FastForwardPreparer is optionally implemented by processes whose
// FastForward benefits from precomputation. The compiled engines call
// PrepareFastForward once per run with the largest sleep-run length they
// expect to batch, before any FastForward call; the hint only affects
// speed, never the sampled law.
type FastForwardPreparer interface {
	Recharge
	PrepareFastForward(maxN int)
}

// Bernoulli recharges c units with probability q each slot — the paper's
// default recharge model (Fig. 3 "Poisson" curve and all of Figs. 4–6).
type Bernoulli struct {
	q, c  float64
	name  string
	table *dist.BinomialTable
}

var _ Recharge = (*Bernoulli)(nil)

// NewBernoulli constructs the process with per-slot probability q in
// [0, 1] and amount c >= 0.
func NewBernoulli(q, c float64) (*Bernoulli, error) {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return nil, fmt.Errorf("energy: Bernoulli q must be in [0,1], got %g", q)
	}
	if c < 0 || math.IsNaN(c) || math.IsInf(c, 1) {
		return nil, fmt.Errorf("energy: Bernoulli c must be finite and >= 0, got %g", c)
	}
	return &Bernoulli{q: q, c: c, name: fmt.Sprintf("Bernoulli(q=%g,c=%g)", q, c)}, nil
}

// Next implements Recharge.
func (b *Bernoulli) Next(src *rng.Source) float64 {
	if src.Bernoulli(b.q) {
		return b.c
	}
	return 0
}

// Mean implements Recharge.
func (b *Bernoulli) Mean() float64 { return b.q * b.c }

// Name implements Recharge.
func (b *Bernoulli) Name() string { return b.name }

// Q returns the per-slot delivery probability.
func (b *Bernoulli) Q() float64 { return b.q }

// C returns the per-delivery amount.
func (b *Bernoulli) C() float64 { return b.c }

var _ FastForwardPreparer = (*Bernoulli)(nil)

// PrepareFastForward implements FastForwardPreparer: it precomputes
// Binomial CDF tables so each in-range FastForward costs one uniform and
// a binary search instead of per-gap logarithms.
func (b *Bernoulli) PrepareFastForward(maxN int) {
	if b.table == nil || b.table.MaxN() < maxN {
		b.table = dist.NewBinomialTable(b.q, maxN)
	}
}

// FastForward implements Recharge. The number of deliveries across n
// independent Bernoulli(q) slots is exactly Binomial(n, q), so one batch
// draw replaces n per-slot draws; degenerate q needs no randomness at all.
func (b *Bernoulli) FastForward(bat *Battery, n int64, src *rng.Source) {
	if n <= 0 {
		return
	}
	var m int64
	switch {
	case b.q <= 0:
		m = 0
	case b.q >= 1:
		m = n
	case b.table != nil:
		m = b.table.Sample(src, n)
	default:
		m = dist.SampleBinomial(src, n, b.q)
	}
	if m == 0 || b.c <= 0 {
		return
	}
	if !bat.RechargeN(b.c, m) {
		for i := int64(0); i < m; i++ {
			bat.Recharge(b.c)
		}
	}
}

// Periodic recharges amount units every period slots (the paper's
// "Periodic" model: 5 units every 10 slots). It is stateful: the phase
// advances on every Next call.
type Periodic struct {
	amount float64
	period int
	phase  int
	name   string
}

var _ Recharge = (*Periodic)(nil)

// NewPeriodic constructs the process delivering amount energy once every
// period slots (on the last slot of each period).
func NewPeriodic(amount float64, period int) (*Periodic, error) {
	if amount < 0 || math.IsNaN(amount) || math.IsInf(amount, 1) {
		return nil, fmt.Errorf("energy: Periodic amount must be finite and >= 0, got %g", amount)
	}
	if period < 1 {
		return nil, fmt.Errorf("energy: Periodic period must be >= 1, got %d", period)
	}
	return &Periodic{
		amount: amount,
		period: period,
		name:   fmt.Sprintf("Periodic(%g per %d)", amount, period),
	}, nil
}

// Next implements Recharge.
func (p *Periodic) Next(*rng.Source) float64 {
	p.phase++
	if p.phase >= p.period {
		p.phase = 0
		return p.amount
	}
	return 0
}

// Mean implements Recharge.
func (p *Periodic) Mean() float64 { return p.amount / float64(p.period) }

// Name implements Recharge.
func (p *Periodic) Name() string { return p.name }

// Reset restores the initial phase, for reuse across simulation runs.
func (p *Periodic) Reset() { p.phase = 0 }

// FastForward implements Recharge. Across n slots starting at the
// current phase the process delivers floor((phase+n)/period) times; the
// intermediate zero-amount slots are no-ops on the battery, so delivering
// the lump sums back-to-back reproduces the sequential run bit for bit.
func (p *Periodic) FastForward(b *Battery, n int64, _ *rng.Source) {
	if n <= 0 {
		return
	}
	advanced := int64(p.phase) + n
	deliveries := advanced / int64(p.period)
	p.phase = int(advanced % int64(p.period))
	if !b.RechargeN(p.amount, deliveries) {
		for i := int64(0); i < deliveries; i++ {
			b.Recharge(p.amount)
		}
	}
}

// Constant recharges the same amount every slot — the paper's "Uniform"
// model (0.5 units per slot).
type Constant struct {
	e    float64
	name string
}

var _ Recharge = (*Constant)(nil)

// NewConstant constructs the deterministic per-slot recharge of e >= 0.
func NewConstant(e float64) (*Constant, error) {
	if e < 0 || math.IsNaN(e) || math.IsInf(e, 1) {
		return nil, fmt.Errorf("energy: Constant rate must be finite and >= 0, got %g", e)
	}
	return &Constant{e: e, name: fmt.Sprintf("Constant(%g)", e)}, nil
}

// Next implements Recharge.
func (c *Constant) Next(*rng.Source) float64 { return c.e }

// Mean implements Recharge.
func (c *Constant) Mean() float64 { return c.e }

// Name implements Recharge.
func (c *Constant) Name() string { return c.name }

// FastForward implements Recharge.
func (c *Constant) FastForward(b *Battery, n int64, _ *rng.Source) {
	if n <= 0 {
		return
	}
	if !b.RechargeN(c.e, n) {
		for i := int64(0); i < n; i++ {
			b.Recharge(c.e)
		}
	}
}

// ClippedGaussian recharges max(0, N(mu, sigma²)) per slot — an extension
// model for solar-like harvesting noise. Mean accounts for the clipping:
// E[max(0,X)] = mu·Φ(mu/σ) + σ·φ(mu/σ).
type ClippedGaussian struct {
	mu, sigma float64
	mean      float64
	name      string
}

var _ Recharge = (*ClippedGaussian)(nil)

// NewClippedGaussian constructs the process. sigma must be >= 0.
func NewClippedGaussian(mu, sigma float64) (*ClippedGaussian, error) {
	if sigma < 0 || math.IsNaN(sigma) || math.IsInf(sigma, 1) || math.IsNaN(mu) || math.IsInf(mu, 0) {
		return nil, fmt.Errorf("energy: invalid ClippedGaussian(%g, %g)", mu, sigma)
	}
	g := &ClippedGaussian{
		mu:    mu,
		sigma: sigma,
		name:  fmt.Sprintf("ClippedGaussian(mu=%g,sigma=%g)", mu, sigma),
	}
	if sigma == 0 {
		g.mean = math.Max(0, mu)
	} else {
		z := mu / sigma
		phi := math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
		capPhi := 0.5 * (1 + math.Erf(z/math.Sqrt2))
		g.mean = mu*capPhi + sigma*phi
	}
	return g, nil
}

// Next implements Recharge.
func (g *ClippedGaussian) Next(src *rng.Source) float64 {
	v := g.mu + g.sigma*src.NormFloat64()
	if v < 0 {
		return 0
	}
	return v
}

// Mean implements Recharge.
func (g *ClippedGaussian) Mean() float64 { return g.mean }

// Name implements Recharge.
func (g *ClippedGaussian) Name() string { return g.name }

// FastForward implements Recharge by stepping Next once per slot: the
// same draws, in the same order, through the same Battery.Recharge
// rounding as n sequential slots, so the result is bit-identical.
// Summing the amounts into one Recharge call would reorder the float
// additions and lose that.
func (g *ClippedGaussian) FastForward(b *Battery, n int64, src *rng.Source) {
	for ; n > 0; n-- {
		b.Recharge(g.Next(src))
	}
}

// OnOff is a bursty two-state (Gilbert) recharge process: in the on state
// it delivers amount per slot, in the off state nothing; state flips with
// the given probabilities. It models intermittent sources (cloud cover,
// duty-cycled RF chargers) and stresses the battery's burst absorption.
type OnOff struct {
	amount           float64
	pOnToOff, pOffOn float64
	on               bool
	name             string
}

var _ Recharge = (*OnOff)(nil)

// NewOnOff constructs the process starting in the on state.
func NewOnOff(amount, pOnToOff, pOffToOn float64) (*OnOff, error) {
	if amount < 0 || math.IsNaN(amount) || math.IsInf(amount, 1) {
		return nil, fmt.Errorf("energy: OnOff amount must be finite and >= 0, got %g", amount)
	}
	for _, p := range []float64{pOnToOff, pOffToOn} {
		if p <= 0 || p > 1 || math.IsNaN(p) {
			return nil, fmt.Errorf("energy: OnOff switch probabilities must be in (0,1], got (%g, %g)", pOnToOff, pOffToOn)
		}
	}
	return &OnOff{
		amount:   amount,
		pOnToOff: pOnToOff,
		pOffOn:   pOffToOn,
		on:       true,
		name:     fmt.Sprintf("OnOff(%g, on->off=%g, off->on=%g)", amount, pOnToOff, pOffToOn),
	}, nil
}

// Next implements Recharge.
func (o *OnOff) Next(src *rng.Source) float64 {
	var out float64
	if o.on {
		out = o.amount
		if src.Bernoulli(o.pOnToOff) {
			o.on = false
		}
	} else if src.Bernoulli(o.pOffOn) {
		o.on = true
	}
	return out
}

// Mean implements Recharge: amount times the stationary on-probability.
func (o *OnOff) Mean() float64 {
	return o.amount * o.pOffOn / (o.pOnToOff + o.pOffOn)
}

// Name implements Recharge.
func (o *OnOff) Name() string { return o.name }

// Reset restores the initial (on) state.
func (o *OnOff) Reset() { o.on = true }

// FastForward implements Recharge by stepping Next once per slot, which
// keeps the state chain, the draws and the battery's float operations
// bit-identical to n sequential slots (see ClippedGaussian.FastForward).
func (o *OnOff) FastForward(b *Battery, n int64, src *rng.Source) {
	for ; n > 0; n-- {
		b.Recharge(o.Next(src))
	}
}
