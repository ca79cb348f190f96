package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
	"testing/iotest"
)

// legacyReader is the bufio decoder the slice-window Reader replaced:
// one binary.ReadUvarint or io.ReadFull per field. It stays here as the
// differential oracle of FuzzTraceReader and BenchmarkTraceDecode.
type legacyReader struct {
	br   *bufio.Reader
	last int64
}

func newLegacyReader(r io.Reader) (*legacyReader, error) {
	br := bufio.NewReaderSize(r, 1<<15)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("trace: bad magic %q (not a trace file?)", magic)
	}
	return &legacyReader{br: br}, nil
}

func (r *legacyReader) uvarint() (uint64, error) { return binary.ReadUvarint(r.br) }
func (r *legacyReader) varint() (int64, error)   { return binary.ReadVarint(r.br) }

func (r *legacyReader) float() (float64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r.br, b[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
}

func (r *legacyReader) string() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("string length %d exceeds limit", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.br, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *legacyReader) next() (Frame, error) {
	kind, err := r.br.ReadByte()
	if err == io.EOF {
		return Frame{}, io.EOF
	}
	if err != nil {
		return Frame{}, fmt.Errorf("trace: reading frame kind: %w", err)
	}
	f, err := r.body(kind)
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, fmt.Errorf("trace: decoding frame kind 0x%02x: %w", kind, err)
	}
	return f, nil
}

func (r *legacyReader) body(kind byte) (Frame, error) {
	f := Frame{Kind: kind}
	switch kind {
	case FrameRunStart:
		engine, err := r.br.ReadByte()
		if err != nil {
			return f, err
		}
		sensors, err := r.uvarint()
		if err != nil {
			return f, err
		}
		seed, err := r.uvarint()
		if err != nil {
			return f, err
		}
		slots, err := r.uvarint()
		if err != nil {
			return f, err
		}
		capK, err := r.float()
		if err != nil {
			return f, err
		}
		cost, err := r.float()
		if err != nil {
			return f, err
		}
		policy, err := r.string()
		if err != nil {
			return f, err
		}
		dist, err := r.string()
		if err != nil {
			return f, err
		}
		recharge, err := r.string()
		if err != nil {
			return f, err
		}
		f.Run = RunInfo{
			Engine: engine, Sensors: int(sensors), Seed: seed, Slots: int64(slots),
			BatteryCap: capK, Cost: cost, Policy: policy, Dist: dist, Recharge: recharge,
		}
		r.last = 0
	case FrameSlot:
		delta, err := r.varint()
		if err != nil {
			return f, err
		}
		sensor, err := r.varint()
		if err != nil {
			return f, err
		}
		engine, err := r.br.ReadByte()
		if err != nil {
			return f, err
		}
		flags, err := r.br.ReadByte()
		if err != nil {
			return f, err
		}
		h, err := r.varint()
		if err != nil {
			return f, err
		}
		fc, err := r.varint()
		if err != nil {
			return f, err
		}
		prob, err := r.float()
		if err != nil {
			return f, err
		}
		battery, err := r.float()
		if err != nil {
			return f, err
		}
		recharge, err := r.float()
		if err != nil {
			return f, err
		}
		f.Rec = Rec{
			Slot: r.last + delta, Sensor: int32(sensor), Engine: engine, Flags: flags,
			H: int32(h), F: int32(fc), Prob: prob, Battery: battery, Recharge: recharge,
		}
		r.last = f.Rec.Slot
	case FrameSpan:
		delta, err := r.varint()
		if err != nil {
			return f, err
		}
		length, err := r.uvarint()
		if err != nil {
			return f, err
		}
		events, err := r.uvarint()
		if err != nil {
			return f, err
		}
		state, err := r.br.ReadByte()
		if err != nil {
			return f, err
		}
		delivered, err := r.float()
		if err != nil {
			return f, err
		}
		battery, err := r.float()
		if err != nil {
			return f, err
		}
		f.Span = Span{
			Start: r.last + delta, Len: int64(length), Events: int64(events),
			State: state, Delivered: delivered, Battery: battery,
		}
		r.last = f.Span.Start + f.Span.Len - 1
	case FrameRunEnd:
		events, err := r.uvarint()
		if err != nil {
			return f, err
		}
		captures, err := r.uvarint()
		if err != nil {
			return f, err
		}
		f.End = RunEnd{Events: int64(events), Captures: int64(captures)}
	default:
		return f, fmt.Errorf("unknown frame kind")
	}
	return f, nil
}

// errClass buckets a decoder error by its contract: exact io.EOF at a
// clean end, truncation, or corruption.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case err == io.EOF:
		return "eof"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "truncated"
	case errors.Is(err, io.EOF):
		return "wrapped-eof"
	}
	return "corrupt"
}

// decodeAll decodes every frame with the slice-window Reader and
// returns the frames plus the error that stopped decoding.
func decodeAll(src io.Reader) ([]Frame, error) {
	r, err := NewReader(src)
	if err != nil {
		return nil, err
	}
	var frames []Frame
	for {
		f, err := r.Next()
		if err != nil {
			return frames, err
		}
		frames = append(frames, *f)
	}
}

// decodeAllLegacy is decodeAll through the oracle.
func decodeAllLegacy(src io.Reader) ([]Frame, error) {
	r, err := newLegacyReader(src)
	if err != nil {
		return nil, err
	}
	var frames []Frame
	for {
		f, err := r.next()
		if err != nil {
			return frames, err
		}
		frames = append(frames, f)
	}
}

// checkDecodersAgree fails unless the Reader, fed whole or one byte at
// a time, decodes data to the oracle's frames and error class.
func checkDecodersAgree(t *testing.T, data []byte) []Frame {
	t.Helper()
	want, wantErr := decodeAllLegacy(bytes.NewReader(data))
	for _, src := range []struct {
		name string
		r    io.Reader
	}{
		{"whole", bytes.NewReader(data)},
		{"one-byte", iotest.OneByteReader(bytes.NewReader(data))},
	} {
		got, err := decodeAll(src.r)
		if errClass(err) != errClass(wantErr) {
			t.Fatalf("%s: decoding stopped with %v, oracle with %v", src.name, err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: decoded %d frames, oracle %d", src.name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: frame %d:\ngot    %+v\noracle %+v", src.name, i, got[i], want[i])
			}
		}
	}
	return want
}

// allocated returns the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// consumers are the frame-stream readers that keep per-run state.
var consumers = []struct {
	name string
	run  func(io.Reader) error
}{
	{"Replay", func(r io.Reader) error { _, err := Replay(r); return err }},
	{"Stats", func(r io.Reader) error { _, err := Stats(r); return err }},
	{"QoMReports", func(r io.Reader) error { _, err := QoMReports(r); return err }},
}

// fuzzMaxSlots keeps the fuzzed consumers' legitimate O(RunInfo.Slots)
// state small; the limit itself is covered by
// TestReadersRejectOutOfRangeRecords.
const fuzzMaxSlots = 1 << 22

// FuzzTraceReader feeds arbitrary and truncated byte streams through
// Next, Replay, Stats and QoMReports. The Reader must agree with the
// legacy bufio decoder on every frame and on the error class; no
// consumer may panic or allocate more than its stated bounds: the
// input's own size, one byte per claimed slot and a counter per claimed
// sensor. A trace that replays must also pass Stats and rebuild the
// same totals through QoMReports.
func FuzzTraceReader(f *testing.F) {
	full := buildTrace(f).Bytes()
	f.Add(full)
	f.Add(full[:len(full)-5])
	f.Add([]byte(Magic))
	f.Add([]byte(Magic + "\x02\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80"))
	f.Fuzz(func(t *testing.T, data []byte) {
		frames := checkDecodersAgree(t, data)
		var slots int64
		sensors := 0
		for i := range frames {
			if frames[i].Kind == FrameRunStart {
				slots = max(slots, frames[i].Run.Slots)
				sensors = max(sensors, frames[i].Run.Sensors)
			}
		}
		if slots > fuzzMaxSlots && slots <= maxRunSlots {
			return
		}
		bound := uint64(1<<20+64*len(data)) + 4*uint64(min(max(slots, 0), fuzzMaxSlots)) + 16*uint64(min(max(sensors, 0), maxRunSensors))
		errs := make([]error, len(consumers))
		for i, c := range consumers {
			if n := allocated(func() { errs[i] = c.run(bytes.NewReader(data)) }); n > bound {
				t.Fatalf("%s allocated %d bytes on a %d-byte trace (bound %d)", c.name, n, len(data), bound)
			}
		}
		sum, err := Replay(bytes.NewReader(data))
		if err != nil {
			return
		}
		if errs[1] != nil || errs[2] != nil {
			t.Fatalf("trace replays but Stats = %v, QoMReports = %v", errs[1], errs[2])
		}
		reports, _ := QoMReports(bytes.NewReader(data))
		if p := PoolQoM(reports); p.Events != sum.Events || p.Captures != sum.Captures {
			t.Fatalf("QoMReports pooled %d/%d events/captures, Replay %d/%d", p.Events, p.Captures, sum.Events, sum.Captures)
		}
	})
}

// TestReaderMatchesLegacyDecoder pins the Reader to the oracle on a
// valid trace, on every truncation of it, and across buffer refills (a
// trace several windows long whose RunStart outgrows the window).
func TestReaderMatchesLegacyDecoder(t *testing.T) {
	full := buildTrace(t).Bytes()
	for n := 0; n <= len(full); n++ {
		checkDecodersAgree(t, full[:n])
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	info := sampleInfo(EngineKernel)
	info.Policy = string(bytes.Repeat([]byte("p"), maxStringLen))
	info.Slots = 1 << 20
	w.RunStart(info)
	for slot := int64(1); slot <= 20000; slot++ {
		if slot%7 == 0 {
			w.Span(Span{Start: slot, Len: 1, Events: 1, State: 2, Delivered: 0.5, Battery: 3})
			continue
		}
		w.Rec(Rec{Slot: slot, Sensor: int32(slot % 3), Engine: EngineKernel, Flags: uint8(slot % 16),
			H: int32(slot % 300), F: int32(-slot), Prob: 1 / float64(slot), Battery: float64(slot), Recharge: 1})
	}
	w.RunEnd(RunEnd{Events: 1 << 40, Captures: 1 << 62})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if frames := checkDecodersAgree(t, buf.Bytes()); len(frames) != 20002 {
		t.Fatalf("decoded %d frames, want 20002", len(frames))
	}
}

// TestReaderSurfacesSourceErrors checks that a failing source surfaces
// its own error, wrapped, between frames and mid-frame.
func TestReaderSurfacesSourceErrors(t *testing.T) {
	full := buildTrace(t).Bytes()
	boom := errors.New("disk on fire")
	for _, cut := range []int{len(Magic), len(full) - 5} {
		r, err := NewReader(io.MultiReader(bytes.NewReader(full[:cut]), iotest.ErrReader(boom)))
		if err != nil {
			t.Fatal(err)
		}
		for err == nil {
			_, err = r.Next()
		}
		if !errors.Is(err, boom) {
			t.Fatalf("cut %d: error %v does not wrap the source error", cut, err)
		}
	}
}

// oneRecordTrace is a one-run trace whose single slot record sits at
// slot and sensor, under a RunStart claiming slots × sensors.
func oneRecordTrace(t *testing.T, slots int64, sensors int, slot int64, sensor int32) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	info := sampleInfo(EngineReference)
	info.Slots, info.Sensors = slots, sensors
	w.RunStart(info)
	w.Rec(Rec{Slot: slot, Sensor: sensor, Flags: FlagEvent | FlagActive | FlagCaptured, Prob: 1, Battery: 1})
	w.RunEnd(RunEnd{Events: 1, Captures: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadersRejectOutOfRangeRecords crafts corrupt traces that would
// make the consumers' dense per-slot or per-sensor state huge, and
// checks that each consumer returns an error without a large
// allocation.
func TestReadersRejectOutOfRangeRecords(t *testing.T) {
	var span bytes.Buffer
	w := NewWriter(&span)
	w.RunStart(sampleInfo(EngineKernel))
	w.Span(Span{Start: 990, Len: 20, Events: 1})
	w.RunEnd(RunEnd{Events: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"slot delta 1<<40", oneRecordTrace(t, 1000, 2, 1<<40, 0)},
		{"slot 0", oneRecordTrace(t, 1000, 2, 0, 0)},
		{"slot past RunInfo.Slots", oneRecordTrace(t, 1000, 2, 1001, 0)},
		{"sensor index = RunInfo.Sensors", oneRecordTrace(t, 1000, 2, 5, 2)},
		{"sensor index 1<<22", oneRecordTrace(t, 1000, 2, 5, 1<<22)},
		{"sensor index -2", oneRecordTrace(t, 1000, 2, 5, -2)},
		{"span past RunInfo.Slots", span.Bytes()},
		{"RunStart claims 1<<40 slots", oneRecordTrace(t, 1<<40, 2, 1<<39, 0)},
		{"RunStart claims 1<<30 sensors", oneRecordTrace(t, 1000, 1<<30, 5, 1<<29)},
	}
	const limit = 1 << 20
	for _, tc := range cases {
		for _, c := range consumers {
			var err error
			n := allocated(func() { err = c.run(bytes.NewReader(tc.data)) })
			if err == nil {
				t.Errorf("%s: %s accepted the trace", tc.name, c.name)
			}
			if n > limit {
				t.Errorf("%s: %s allocated %d bytes (limit %d)", tc.name, c.name, n, limit)
			}
		}
	}
	// The valid neighbours of the corrupt cases still replay.
	for _, data := range [][]byte{oneRecordTrace(t, 1000, 2, 1000, 1), oneRecordTrace(t, 1000, 2, 1, -1)} {
		for _, c := range consumers {
			if err := c.run(bytes.NewReader(data)); err != nil {
				t.Errorf("%s rejected a valid trace: %v", c.name, err)
			}
		}
	}
}

// frameStream is a trace holding one RunStart followed by n copies of
// the frame emit writes.
func frameStream(t testing.TB, n int, emit func(w *Writer, i int)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.RunStart(sampleInfo(EngineKernel))
	for i := range n {
		emit(w, i)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReaderDecodeAllocs gates the decoder's allocations: slot, span
// and run-end frames decode with none, a RunStart with at most one per
// string field.
func TestReaderDecodeAllocs(t *testing.T) {
	const runs = 200
	cases := []struct {
		name string
		max  float64
		emit func(w *Writer, i int)
	}{
		{"slot", 0, func(w *Writer, i int) {
			w.Rec(Rec{Slot: int64(3 * i), Sensor: 1, Flags: FlagActive, H: int32(i), F: 300, Prob: 0.5, Battery: 9, Recharge: 1})
		}},
		{"span", 0, func(w *Writer, i int) {
			w.Span(Span{Start: int64(100 * i), Len: 90, Events: 2, State: 1, Delivered: 45, Battery: 99})
		}},
		{"run-end", 0, func(w *Writer, i int) { w.RunEnd(RunEnd{Events: 400, Captures: 300}) }},
		{"run-start", 3, func(w *Writer, i int) { w.RunStart(sampleInfo(EngineKernel)) }},
	}
	for _, tc := range cases {
		r, err := NewReader(bytes.NewReader(frameStream(t, runs+2, tc.emit)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("%s frame: %.1f allocations per decode, want <= %.0f", tc.name, allocs, tc.max)
		}
	}
}

// BenchmarkTraceDecode decodes a kernel-shaped trace (decided slots
// with periodic sleep spans) frame by frame; its MB/s is the decoder
// layer's gauge. The bufio oracle runs alongside for comparison.
func BenchmarkTraceDecode(b *testing.B) {
	data := frameStream(b, 100_000, func(w *Writer, i int) {
		if i%10 == 9 {
			w.Span(Span{Start: int64(4 * i), Len: 3, Events: int64(i % 2), State: 1, Delivered: 1.5, Battery: 150})
			return
		}
		w.Rec(Rec{Slot: int64(4*i + 3), Sensor: 0, Engine: EngineKernel, Flags: uint8(i % 4),
			H: int32(i % 90), F: int32(i % 400), Prob: float64(i%8) / 8, Battery: float64(i % 200), Recharge: float64(i % 2)})
	})
	b.Run("reader", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for range b.N {
			r, err := NewReader(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			for {
				if _, err := r.Next(); err != nil {
					if err != io.EOF {
						b.Fatal(err)
					}
					break
				}
			}
		}
	})
	b.Run("legacy-oracle", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for range b.N {
			r, err := newLegacyReader(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			for {
				if _, err := r.next(); err != nil {
					if err != io.EOF {
						b.Fatal(err)
					}
					break
				}
			}
		}
	})
}
