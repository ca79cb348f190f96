package main

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Host-speed calibration.
//
// The benchmark runs on shared virtual CPUs whose speed drifts with the
// load that other tenants put on the host: the same pass can take 1.5
// to 2 times as long from one minute to the next. Any wall or CPU time
// measured on such a host mostly reports the host. So an untraced pass
// runs calibrate, a fixed loop that lives in this harness and calls
// none of the repository's code, before every operation and after the
// last, and its times are reported scaled to a reference host speed:
//
//	t_ref = t × calRef / cal
//
// where cal is the median of the pass's calibrations. A change to the
// program moves t and leaves cal alone, so it shows in full; a slower
// host moves both, and the ratio cancels it.

// calRef is the reference host speed: the calibration's duration on
// the idle baseline host (see README.md). It only sets the scale of the
// reported times, which read as seconds on that host.
const calRef = 100 * time.Millisecond

// The calibration's two loops, each about half of calRef on the
// baseline host. hashIters rounds of hashing into a 1 MiB buffer that
// fits in L2 stand for the engines and the trace decoder; streamRounds
// passes of dependent multiply-adds over a 4 KiB vector stand for the
// policy solver's belief updates. Either loop alone tracked one
// workload's host-driven drift well and another's poorly; their sum
// tracked all three (README.md).
const (
	hashIters    = 8_000_000
	streamRounds = 60_000
)

// calLane is one lane's working set, allocated once so a calibration
// neither faults in pages nor adds to the program's garbage.
type calLane struct {
	hash   []uint64
	stream []float64
}

var calLanes []*calLane

// calSink keeps the loops' results live.
var calSink atomic.Uint64

// calibrate runs the calibration on every CPU the program may use
// (GOMAXPROCS lanes at once, as the worker pool does) and returns the
// mean lane duration.
func calibrate() time.Duration {
	lanes := runtime.GOMAXPROCS(0)
	for len(calLanes) < lanes {
		calLanes = append(calLanes, &calLane{hash: make([]uint64, 1<<17), stream: make([]float64, 512)})
	}
	took := make([]time.Duration, lanes)
	var wg sync.WaitGroup
	for k := range took {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			calLanes[k].run()
			took[k] = time.Since(start)
		}()
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range took {
		sum += d
	}
	return sum / time.Duration(lanes)
}

// run does one lane's fixed work: the hashing loop (xorshift, a load
// and a store at a hashed index, a data-dependent branch, math.Log),
// then the streaming loop (a running sum feeding back into the vector,
// which starts from the same values on every call).
func (l *calLane) run() {
	x := uint64(88172645463325252)
	f := 1.0
	for i := 0; i < hashIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & uint64(len(l.hash)-1)
		l.hash[j] += x
		if x&3 == 0 {
			f += math.Log(float64(j + 1))
		} else {
			f *= 0.999999
		}
	}
	v := l.stream
	for i := range v {
		v[i] = 1 / float64(i+1)
	}
	for r := 0; r < streamRounds; r++ {
		acc := 0.0
		for j, w := range v {
			acc += w * 0.37
			v[j] = w*0.9999 + acc*1e-7
		}
		f += acc
	}
	calSink.Add(math.Float64bits(f) ^ x)
}

// scale converts a duration measured while the calibration took cal to
// seconds at the reference host speed.
func scale(d, cal time.Duration) float64 {
	return d.Seconds() * calRef.Seconds() / cal.Seconds()
}
