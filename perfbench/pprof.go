package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is attributed by package: each sample goes to the
// innermost frame from an eventcap/internal package, samples with no
// such frame but a harness (package main) frame to "harness", and all
// others — garbage collection, the scheduler — to "runtime". A sample
// is also marked spanned when a frame of its stack belongs to a layer
// whose time the span tree already measures. This file holds the few
// lines of the pprof protobuf format that need.

const internalPrefix = "eventcap/internal/"

// spannedLayers are the frames whose work runs under a span: the
// engines under sim.run, the trace writer under sim.run and
// trace.close, the trace reader and the harness's read-back checks
// under trace.replay and trace.stats.
var spannedLayers = []string{internalPrefix + "sim.", internalPrefix + "trace.", "main.readbackOp"}

// profile is a CPU profile split by bucket.
type profile struct {
	cpu       map[string]float64 // CPU seconds by bucket
	unspanned float64            // CPU seconds of samples outside every spanned layer
}

// cpuByPackage decodes a gzipped pprof CPU profile and sums the CPU
// seconds of its samples per bucket.
func cpuByPackage(gz []byte) (profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return profile{}, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return profile{}, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		sampleRaw [][]byte
		typeIdx   []int64 // sample_type[i].type string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2:
			sampleRaw = append(sampleRaw, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, line []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(line, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return profile{}, fmt.Errorf("cpu profile: %w", err)
	}
	cpuIdx := -1
	for i, s := range typeIdx {
		if s >= 0 && int(s) < len(strs) && strs[s] == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return profile{}, errors.New("cpu profile: no cpu sample type")
	}
	name := func(fn uint64) string {
		i := funcName[fn]
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := profile{cpu: make(map[string]float64)}
	for _, sb := range sampleRaw {
		var locs []uint64
		var vals []int64
		err := eachField(sb, func(n int, v uint64, packed []byte) error {
			switch n {
			case 1:
				if packed == nil {
					locs = append(locs, v)
					return nil
				}
				return eachVarint(packed, func(x uint64) { locs = append(locs, x) })
			case 2:
				if packed == nil {
					vals = append(vals, int64(v))
					return nil
				}
				return eachVarint(packed, func(x uint64) { vals = append(vals, int64(x)) })
			}
			return nil
		})
		if err != nil {
			return profile{}, fmt.Errorf("cpu profile sample: %w", err)
		}
		if cpuIdx >= len(vals) {
			continue
		}
		pkg, spanned := bucket(locs, locFuncs, name)
		sec := float64(vals[cpuIdx]) / 1e9
		out.cpu[pkg] += sec
		if !spanned {
			out.unspanned += sec
		}
	}
	return out, nil
}

// bucket names the package a sample's CPU is charged to, and whether
// the sample runs inside a spanned layer.
func bucket(locs []uint64, locFuncs map[uint64][]uint64, name func(uint64) string) (pkg string, spanned bool) {
	harness := false
	for _, l := range locs {
		for _, fn := range locFuncs[l] {
			n := name(fn)
			for _, layer := range spannedLayers {
				spanned = spanned || strings.HasPrefix(n, layer)
			}
			if rest, ok := strings.CutPrefix(n, internalPrefix); ok && pkg == "" {
				if i := strings.IndexByte(rest, '.'); i > 0 {
					pkg = rest[:i]
				}
			}
			if strings.HasPrefix(n, "main.") {
				harness = true
			}
		}
	}
	switch {
	case pkg != "":
		return pkg, spanned
	case harness:
		return "harness", spanned
	}
	return "runtime", spanned
}

// eachField walks the top-level fields of a protobuf message. Varint
// fields pass their value; length-delimited ones their bytes (a packed
// repeated field arrives as bytes, an unpacked one as values).
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		switch typ {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", typ)
		}
	}
	return nil
}

func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
