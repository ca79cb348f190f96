package energy

import (
	"math"
	"testing"

	"eventcap/internal/rng"
)

// FuzzRechargeN pits the O(1) closed form against the sequential loop
// it replaces (the kernel's fast-forward contract, DESIGN.md §8):
// whenever RechargeN claims success it must leave the battery in the
// bit-identical state the loop would have, and when it declines it must
// leave the battery completely untouched. Inputs mix arbitrary floats
// (which mostly exercise the decline path) with values snapped to the
// 2^-20 exactness grid (which exercise the closed form).
func FuzzRechargeN(f *testing.F) {
	f.Add(uint32(1<<20), uint32(10<<20), uint32(1<<18), uint16(100), false)
	f.Add(uint32(0), uint32(1<<21), uint32(3), uint16(4096), false)
	f.Add(uint32(5<<20), uint32(6<<20), uint32(1<<20), uint16(7), false)
	f.Add(uint32(123456), uint32(789012), uint32(345), uint16(977), true)
	f.Fuzz(func(t *testing.T, initRaw, capRaw, amountRaw uint32, n uint16, offGrid bool) {
		// Map raw uint32s onto the dyadic grid (multiples of 2^-20); the
		// offGrid variant perturbs the amount away from it.
		const grid = 1 << 20
		capacity := float64(capRaw%(64*grid)+1) / grid
		initial := float64(initRaw%(64*grid)) / grid
		amount := float64(amountRaw%(4*grid)) / grid
		if offGrid {
			amount += 1e-7 // not representable as k/2^20
		}

		fast, err := NewBattery(capacity, initial)
		if err != nil {
			t.Skip()
		}
		slow, err := NewBattery(capacity, initial)
		if err != nil {
			t.Skip()
		}
		before := *fast

		ok := fast.RechargeN(amount, int64(n))
		if !ok {
			if *fast != before {
				t.Fatalf("RechargeN declined but mutated the battery: %+v -> %+v", before, *fast)
			}
			return
		}
		for i := 0; i < int(n); i++ {
			slow.Recharge(amount)
		}
		if math.Float64bits(fast.Level()) != math.Float64bits(slow.Level()) {
			t.Fatalf("level diverged: closed form %v, loop %v (cap=%v init=%v amount=%v n=%d)",
				fast.Level(), slow.Level(), capacity, initial, amount, n)
		}
		if math.Float64bits(fast.Received()) != math.Float64bits(slow.Received()) {
			t.Fatalf("received diverged: closed form %v, loop %v", fast.Received(), slow.Received())
		}
		if math.Float64bits(fast.OverflowLost()) != math.Float64bits(slow.OverflowLost()) {
			t.Fatalf("overflow diverged: closed form %v, loop %v", fast.OverflowLost(), slow.OverflowLost())
		}
	})
}

// fuzzRecharge builds one of the five recharge processes from raw fuzz
// parameters: amounts are arbitrary rationals p/d, so some land on the
// 2^-20 grid (RechargeN's closed form) and most do not (its fallback).
func fuzzRecharge(kind uint8, p1, p2, p3 uint16) (Recharge, error) {
	amount := float64(p1) / float64(p3%1024+1)
	switch kind % 5 {
	case 0:
		return NewBernoulli(float64(p1)/math.MaxUint16, float64(p2)/float64(p3%1024+1))
	case 1:
		return NewPeriodic(amount, int(p2%64)+1)
	case 2:
		return NewConstant(amount)
	case 3:
		return NewClippedGaussian((float64(p1)-32768)/8192, float64(p2)/8192)
	default:
		return NewOnOff(amount, float64(p2%1000+1)/1000, float64(p3%1000+1)/1000)
	}
}

// FuzzRechargeFastForward pits every process's FastForward against the
// n sequential Recharge(Next) slots it stands for (the energy.Recharge
// contract, DESIGN.md §8), on twin processes, batteries and streams.
// Deterministic and per-slot stepped processes must agree bit for bit:
// Level, Received, OverflowLost, the stream position and the process
// state (its next draw). Bernoulli with q in (0,1) samples the delivery
// count in one binomial draw, equal in law only, so it is held to the
// battery invariants instead.
func FuzzRechargeFastForward(f *testing.F) {
	f.Add(uint8(0), uint16(32768), uint16(1), uint16(0), uint32(100<<6), uint32(50<<6), uint16(3), uint16(500), uint64(1))
	f.Add(uint8(0), uint16(math.MaxUint16), uint16(3), uint16(1), uint32(7<<6), uint32(0), uint16(0), uint16(40), uint64(2))
	f.Add(uint8(1), uint16(5), uint16(9), uint16(0), uint32(200<<6), uint32(100<<6), uint16(7), uint16(1000), uint64(3))
	f.Add(uint8(2), uint16(1), uint16(0), uint16(9), uint32(25<<6), uint32(3<<6), uint16(0), uint16(4095), uint64(4))
	f.Add(uint8(3), uint16(32768+3542), uint16(4096), uint16(0), uint32(25<<6), uint32(10<<6), uint16(11), uint16(2000), uint64(5))
	f.Add(uint8(4), uint16(3), uint16(19), uint16(9), uint32(400<<6), uint32(0), uint16(63), uint16(3000), uint64(6))
	f.Fuzz(func(t *testing.T, kind uint8, p1, p2, p3 uint16, capRaw, levelRaw uint32, warm, nRaw uint16, seed uint64) {
		fast, err := fuzzRecharge(kind, p1, p2, p3)
		if err != nil {
			t.Skip()
		}
		slow, _ := fuzzRecharge(kind, p1, p2, p3)
		capacity := float64(capRaw%(1<<16)+1) / 64
		initial := float64(levelRaw%(1<<16)) / 64
		fastBat, err := NewBattery(capacity, initial)
		if err != nil {
			t.Skip()
		}
		slowBat, _ := NewBattery(capacity, initial)
		n := int64(nRaw % 4096)

		// Walk both twins through the same warm-up slots, so stateful
		// processes start the comparison mid-phase or mid-burst.
		src := rng.New(seed, 100)
		twin := *src
		for i := 0; i < int(warm%64); i++ {
			fast.Next(src)
			slow.Next(&twin)
		}
		bern, isBern := fast.(*Bernoulli)
		if isBern && p3&2 != 0 {
			bern.PrepareFastForward(int(nRaw % 256))
		}
		fastSrc, slowSrc := *src, *src

		fast.FastForward(fastBat, n, &fastSrc)
		for i := int64(0); i < n; i++ {
			slowBat.Recharge(slow.Next(&slowSrc))
		}

		if isBern && bern.Q() > 0 && bern.Q() < 1 {
			lvl, got := fastBat.Level(), fastBat.Received()
			if lvl < 0 || lvl > capacity || got < 0 || fastBat.OverflowLost() < 0 {
				t.Fatalf("%s: battery out of range: level %v of %v, received %v, overflow %v",
					fast.Name(), lvl, capacity, got, fastBat.OverflowLost())
			}
			if c := bern.C(); got > float64(n)*c*(1+1e-12) {
				t.Fatalf("%s: received %v exceeds n·c = %v", fast.Name(), got, float64(n)*c)
			}
			start := math.Min(initial, capacity)
			if diff := got - (lvl - start) - fastBat.OverflowLost(); math.Abs(diff) > 1e-9*math.Max(1, got) {
				t.Fatalf("%s: energy not conserved: received %v, gain %v, overflow %v",
					fast.Name(), got, lvl-start, fastBat.OverflowLost())
			}
			return
		}
		for _, c := range []struct {
			what       string
			fast, slow float64
		}{
			{"level", fastBat.Level(), slowBat.Level()},
			{"received", fastBat.Received(), slowBat.Received()},
			{"overflow", fastBat.OverflowLost(), slowBat.OverflowLost()},
		} {
			if math.Float64bits(c.fast) != math.Float64bits(c.slow) {
				t.Fatalf("%s n=%d: %s diverged: FastForward %v, sequential %v",
					fast.Name(), n, c.what, c.fast, c.slow)
			}
		}
		if fastSrc != slowSrc {
			t.Fatalf("%s n=%d: FastForward left the stream elsewhere than %d sequential slots", fast.Name(), n, n)
		}
		if a, b := fast.Next(&fastSrc), slow.Next(&slowSrc); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s n=%d: process state diverged: next draw %v vs %v", fast.Name(), n, a, b)
		}
	})
}
