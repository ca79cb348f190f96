package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// sampleInfo is a RunInfo exercising every field type.
func sampleInfo(engine uint8) RunInfo {
	return RunInfo{
		Engine:     engine,
		Sensors:    3,
		Seed:       42,
		Slots:      1000,
		BatteryCap: 200,
		Cost:       7,
		Policy:     "clustering-pi",
		Dist:       "weibull(40,3)",
		Recharge:   "bernoulli(0.5,1)",
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)

	frames := []Frame{
		{Kind: FrameRunStart, Run: sampleInfo(EngineReference)},
		{Kind: FrameSlot, Rec: Rec{Slot: 5, Sensor: 0, Engine: EngineReference,
			Flags: FlagEvent | FlagActive | FlagCaptured, H: 5, F: 5, Prob: 0.75, Battery: 120.5, Recharge: 1}},
		{Kind: FrameSlot, Rec: Rec{Slot: 5, Sensor: 2, Engine: EngineReference,
			Flags: FlagEvent | FlagDenied, H: 5, F: 5, Prob: 1, Battery: 3, Recharge: 0}},
		// Marker record: negative sensor, and a slot delta of zero.
		{Kind: FrameSlot, Rec: Rec{Slot: 5, Sensor: -1, Engine: EngineReference, Flags: FlagEvent, H: 5, F: 5}},
		// Backwards slot jump (sensor-major independent order).
		{Kind: FrameSlot, Rec: Rec{Slot: 2, Sensor: 1, Engine: EngineIndependent, H: -1, F: 2, Prob: 0.25, Battery: 9}},
		{Kind: FrameRunEnd, End: RunEnd{Events: 1, Captures: 1}},
		{Kind: FrameRunStart, Run: sampleInfo(EngineKernel)},
		{Kind: FrameSpan, Span: Span{Start: 1, Len: 40, Events: 2, State: uint8(1), Delivered: 20, Battery: 180}},
		{Kind: FrameSlot, Rec: Rec{Slot: 41, Sensor: 0, Engine: EngineKernel, Flags: FlagActive, H: 1, F: 41, Prob: 0.5, Battery: 199, Recharge: 1}},
		{Kind: FrameRunEnd, End: RunEnd{Events: 2, Captures: 0}},
	}
	for _, f := range frames {
		switch f.Kind {
		case FrameRunStart:
			w.RunStart(f.Run)
		case FrameSlot:
			w.Rec(f.Rec)
		case FrameSpan:
			w.Span(f.Span)
		case FrameRunEnd:
			w.RunEnd(f.End)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c := w.Counts()
	if c.Runs != 2 || c.Records != 5 || c.Spans != 1 || c.Bytes != int64(buf.Len()) {
		t.Fatalf("counts = %+v, buffer %d bytes", c, buf.Len())
	}
	if len(w.SHA256()) != 64 {
		t.Fatalf("sha256 %q", w.SHA256())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range frames {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if *got != want {
			t.Fatalf("frame %d:\ngot  %+v\nwant %+v", i, *got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("trailing read = %v, want io.EOF", err)
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOTATRACE")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReaderReportsTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.RunStart(sampleInfo(EngineReference))
	w.Rec(Rec{Slot: 1, Sensor: 0, Prob: 0.5, Battery: 10})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Cut into the middle of the slot frame.
	data := buf.Bytes()[:buf.Len()-5]
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatalf("run-start frame: %v", err)
	}
	if _, err := r.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame error = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestWriterStickyError(t *testing.T) {
	w := NewWriter(failWriter{})
	w.RunStart(sampleInfo(EngineReference))
	for i := 0; i < 10_000; i++ { // force a flush past the 32 KiB buffer
		w.Rec(Rec{Slot: int64(i), Prob: 0.5})
	}
	w.RunEnd(RunEnd{})
	if err := w.Close(); err == nil {
		t.Fatal("Close returned nil after a write failure")
	}
	if err := w.Close(); err == nil {
		t.Fatal("second Close lost the sticky error")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }

func TestFlightRecorderRingKeepsLastN(t *testing.T) {
	fr := NewFlightRecorder(16)
	fr.BeginRun(sampleInfo(EngineReference))
	for slot := int64(1); slot <= 100; slot++ {
		fr.Record(&Rec{Slot: slot, Sensor: 0, Prob: 0.5, Battery: 50})
	}
	fr.EndRun(RunEnd{Events: 0, Captures: 0})

	srv := httptest.NewServer(fr.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view struct {
		RingSize   int   `json:"ring_size"`
		TotalDumps int64 `json:"total_dumps"`
		LastRun    *struct {
			Sensors []SensorDump `json:"sensors"`
		} `json:"last_run"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.RingSize != 16 || view.TotalDumps != 0 || view.LastRun == nil {
		t.Fatalf("view = %+v", view)
	}
	recs := view.LastRun.Sensors[0].Records
	if len(recs) != 16 {
		t.Fatalf("ring kept %d records, want 16", len(recs))
	}
	if recs[0].Slot != 85 || recs[15].Slot != 100 {
		t.Fatalf("ring window [%d, %d], want [85, 100]", recs[0].Slot, recs[15].Slot)
	}
}

func TestFlightRecorderInvariantDump(t *testing.T) {
	fr := NewFlightRecorder(16)
	fr.BeginRun(sampleInfo(EngineReference))
	fr.Record(&Rec{Slot: 1, Sensor: 1, Prob: 0.5, Battery: 100})
	fr.Record(&Rec{Slot: 2, Sensor: 1, Prob: 1.5, Battery: 100}) // p > 1
	fr.Record(&Rec{Slot: 3, Sensor: 1, Prob: 1.5, Battery: 100}) // second violation: no new dump
	if got := fr.TotalDumps(); got != 1 {
		t.Fatalf("TotalDumps = %d, want 1 (once per run)", got)
	}
	d := fr.Dumps()
	if len(d) != 1 || d[0].Reason != "invariant" || d[0].Slot != 2 {
		t.Fatalf("dumps = %+v", d)
	}
	if len(d[0].Sensors) != 1 || d[0].Sensors[0].Sensor != 1 || len(d[0].Sensors[0].Records) != 2 {
		t.Fatalf("dump sensors = %+v", d[0].Sensors)
	}

	// A new run re-arms the trigger.
	fr.BeginRun(sampleInfo(EngineReference))
	fr.Record(&Rec{Slot: 1, Sensor: 0, Prob: 0.5, Battery: -1}) // battery < 0
	if got := fr.TotalDumps(); got != 2 {
		t.Fatalf("TotalDumps after second run = %d, want 2", got)
	}
}

// TestRecordSlotMatchesRecord pins the hot-path RecordSlot variant to
// Record: same ring contents, same invariant triggering, same handling
// of marker and out-of-range sensors.
func TestRecordSlotMatchesRecord(t *testing.T) {
	recs := []Rec{
		{Slot: 1, Sensor: 0, Engine: EngineReference, Flags: FlagActive, H: 3, F: 7, Prob: 0.5, Battery: 50, Recharge: 1},
		{Slot: 2, Sensor: -1, Flags: FlagEvent},                      // marker: skipped by both
		{Slot: 3, Sensor: 5, Prob: 0.5, Battery: 50},                 // out of range: skipped by both
		{Slot: 4, Sensor: 0, Engine: EngineKernel, Prob: 2, Battery: 50}, // invariant violation
	}
	a := NewFlightRecorder(16)
	b := NewFlightRecorder(16)
	a.BeginRun(sampleInfo(EngineReference))
	b.BeginRun(sampleInfo(EngineReference))
	for i := range recs {
		r := recs[i]
		a.Record(&r)
		b.RecordSlot(r.Slot, r.Sensor, r.Engine, r.Flags, r.H, r.F, r.Prob, r.Battery, r.Recharge)
	}
	if got, want := b.TotalDumps(), a.TotalDumps(); got != want || got != 1 {
		t.Fatalf("TotalDumps: RecordSlot %d, Record %d, want 1", got, want)
	}
	sa, sb := a.snapshotRing(0), b.snapshotRing(0)
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("ring contents diverge:\nRecord     %+v\nRecordSlot %+v", sa, sb)
	}
	if len(sb.Records) != 2 {
		t.Fatalf("ring kept %d records, want 2 (markers and out-of-range skipped)", len(sb.Records))
	}
}

func TestFlightRecorderFaultAndOutageDumps(t *testing.T) {
	fr := NewFlightRecorder(16)
	fr.BeginRun(sampleInfo(EngineReference))
	fr.Record(&Rec{Slot: 1, Sensor: 0, Prob: 0.5, Battery: 3})
	fr.Record(&Rec{Slot: 1, Sensor: 2, Prob: 0.5, Battery: 5})
	fr.Fault(2, 7)
	fr.OutageMiss(9)
	fr.OutageMiss(11) // once per run
	if got := fr.TotalDumps(); got != 2 {
		t.Fatalf("TotalDumps = %d, want 2", got)
	}
	d := fr.Dumps()
	if d[0].Reason != "fault" || d[0].Slot != 7 || len(d[0].Sensors) != 1 {
		t.Fatalf("fault dump = %+v", d[0])
	}
	if d[1].Reason != "outage_miss" || d[1].Slot != 9 || len(d[1].Sensors) != 3 {
		t.Fatalf("outage dump = %+v", d[1])
	}
}

func TestFlightRecorderStoresEarliestDumps(t *testing.T) {
	fr := NewFlightRecorder(16)
	fr.BeginRun(sampleInfo(EngineReference))
	for i := 0; i < maxStoredDumps+5; i++ {
		fr.Fault(0, int64(i))
	}
	if got := fr.TotalDumps(); got != int64(maxStoredDumps+5) {
		t.Fatalf("TotalDumps = %d", got)
	}
	d := fr.Dumps()
	if len(d) != maxStoredDumps {
		t.Fatalf("stored %d dumps, want %d", len(d), maxStoredDumps)
	}
	if d[0].Slot != 0 || d[maxStoredDumps-1].Slot != int64(maxStoredDumps-1) {
		t.Fatal("stored dumps are not the earliest triggers")
	}
}

// buildTrace writes a two-run trace with a known decomposition:
// run 1 (reference, 2 sensors): 3 events — one captured, one denied
// (noenergy), one missed asleep; run 2 (kernel): a span holding one
// slept-through event plus one captured awake event.
func buildTrace(t testing.TB) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)

	info := sampleInfo(EngineReference)
	info.Sensors = 2
	w.RunStart(info)
	// Slot 10: sensor 0 captures, sensor 1 idle (prob 0 not recorded).
	w.Rec(Rec{Slot: 10, Sensor: 0, Engine: EngineReference, Flags: FlagEvent | FlagActive | FlagCaptured, H: 10, F: 10, Prob: 0.8, Battery: 90, Recharge: 1})
	// Slot 20: event, sensor 1 denied (noenergy miss).
	w.Rec(Rec{Slot: 20, Sensor: 1, Engine: EngineReference, Flags: FlagEvent | FlagDenied, H: 10, F: 20, Prob: 1, Battery: 2})
	// Slot 30: event with no decider — marker record (asleep miss).
	w.Rec(Rec{Slot: 30, Sensor: -1, Engine: EngineReference, Flags: FlagEvent, H: 10, F: 30})
	// Slot 35: wasted activation (no event).
	w.Rec(Rec{Slot: 35, Sensor: 0, Engine: EngineReference, Flags: FlagActive, H: 15, F: 25, Prob: 0.3, Battery: 80})
	w.RunEnd(RunEnd{Events: 3, Captures: 1})

	w.RunStart(sampleInfo(EngineKernel))
	w.Span(Span{Start: 1, Len: 50, Events: 1, State: 1, Delivered: 25, Battery: 150})
	w.Rec(Rec{Slot: 51, Sensor: 0, Engine: EngineKernel, Flags: FlagEvent | FlagActive | FlagCaptured, H: 1, F: 51, Prob: 0.9, Battery: 150, Recharge: 1})
	w.RunEnd(RunEnd{Events: 2, Captures: 1})

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestReplayReconstruction(t *testing.T) {
	sum, err := Replay(buildTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	want := Summary{
		Runs: 2, Records: 5, Spans: 1,
		Events: 5, Captures: 2, MissAsleep: 2, MissNoEnergy: 1,
		Activations: 3, SensorCaptures: 2, Denied: 1, Wasted: 1,
		SpanSlots: 50, SpanEvents: 1,
		QoM: 0.4,
	}
	if *sum != want {
		t.Fatalf("summary:\ngot  %+v\nwant %+v", *sum, want)
	}
}

func TestReplayDetectsRunEndMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.RunStart(sampleInfo(EngineReference))
	w.Rec(Rec{Slot: 1, Sensor: 0, Flags: FlagEvent | FlagActive | FlagCaptured, Prob: 1, Battery: 50})
	w.RunEnd(RunEnd{Events: 2, Captures: 1}) // trace shows 1 event, RunEnd claims 2
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(&buf); err == nil || !strings.Contains(err.Error(), "reconstructed") {
		t.Fatalf("mismatched RunEnd accepted: %v", err)
	}
}

func TestReplayRejectsMissingRunEnd(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.RunStart(sampleInfo(EngineReference))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(&buf); err == nil || !strings.Contains(err.Error(), "mid-run") {
		t.Fatalf("mid-run trace accepted: %v", err)
	}
}

func TestStatsRegionsAndOutage(t *testing.T) {
	rep, err := Stats(buildTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 2 || rep.Records != 5 || rep.Spans != 1 || rep.SpanSlots != 50 || rep.SpanEvents != 1 {
		t.Fatalf("report = %+v", rep)
	}
	// Regions: prob 0 (marker), 0.3, 0.8, 0.9, 1.
	if len(rep.Regions) != 5 {
		t.Fatalf("regions = %+v", rep.Regions)
	}
	for i := 1; i < len(rep.Regions); i++ {
		if rep.Regions[i-1].Prob >= rep.Regions[i].Prob {
			t.Fatal("regions not sorted by prob")
		}
	}
	var atOne RegionStat
	for _, r := range rep.Regions {
		if r.Prob == 1 {
			atOne = r
		}
	}
	if atOne.Slots != 1 || atOne.Denied != 1 || atOne.Events != 1 || atOne.Misses != 1 {
		t.Fatalf("prob-1 region = %+v", atOne)
	}
	// One outage episode: sensor 1's battery 2 < cost 7 at slot 20.
	if rep.Outage.Episodes != 1 || rep.Outage.Slots != 1 || rep.Outage.MaxLen != 1 {
		t.Fatalf("outage = %+v", rep.Outage)
	}
}

func TestDiffIdenticalAndEngineBlind(t *testing.T) {
	a, b := buildTrace(t), buildTrace(t)
	d, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != nil {
		t.Fatalf("identical traces diverge: %+v", d)
	}

	// Same frames, different engine tags: still identical.
	var ta, tb bytes.Buffer
	wa, wb := NewWriter(&ta), NewWriter(&tb)
	wa.RunStart(sampleInfo(EngineReference))
	wb.RunStart(sampleInfo(EngineKernel))
	wa.Rec(Rec{Slot: 1, Sensor: 0, Engine: EngineReference, Prob: 0.5, Battery: 10})
	wb.Rec(Rec{Slot: 1, Sensor: 0, Engine: EngineKernel, Prob: 0.5, Battery: 10})
	wa.RunEnd(RunEnd{})
	wb.RunEnd(RunEnd{})
	if err := wa.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = Diff(&ta, &tb)
	if err != nil {
		t.Fatal(err)
	}
	if d != nil {
		t.Fatalf("engine-tag difference reported as divergence: %+v", d)
	}
}

func TestDiffFindsFirstDivergence(t *testing.T) {
	var ta, tb bytes.Buffer
	wa, wb := NewWriter(&ta), NewWriter(&tb)
	for _, w := range []*Writer{wa, wb} {
		w.RunStart(sampleInfo(EngineReference))
		w.Rec(Rec{Slot: 1, Sensor: 0, Prob: 0.5, Battery: 10})
	}
	wa.Rec(Rec{Slot: 2, Sensor: 0, Prob: 0.5, Battery: 11})
	wb.Rec(Rec{Slot: 2, Sensor: 0, Prob: 0.5, Battery: 12}) // diverges here
	for _, w := range []*Writer{wa, wb} {
		w.RunEnd(RunEnd{})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	d, err := Diff(&ta, &tb)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || d.Frame != 2 || d.Run != 0 || d.Slot != 2 {
		t.Fatalf("divergence = %+v", d)
	}
	if !strings.Contains(d.A, "battery=11") || !strings.Contains(d.B, "battery=12") {
		t.Fatalf("descriptions: a=%q b=%q", d.A, d.B)
	}
}

func TestDiffPrefixTrace(t *testing.T) {
	full, err := io.ReadAll(buildTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	// b is a valid trace that is a strict frame-prefix of a.
	var tb bytes.Buffer
	wb := NewWriter(&tb)
	info := sampleInfo(EngineReference)
	info.Sensors = 2
	wb.RunStart(info)
	wb.Rec(Rec{Slot: 10, Sensor: 0, Engine: EngineReference, Flags: FlagEvent | FlagActive | FlagCaptured, H: 10, F: 10, Prob: 0.8, Battery: 90, Recharge: 1})
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := Diff(bytes.NewReader(full), &tb)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || d.B != "<end of trace>" || d.Frame != 2 {
		t.Fatalf("prefix divergence = %+v", d)
	}
}

func TestDumpReasonString(t *testing.T) {
	if got := DumpInvariant.String(); got != "invariant" {
		t.Fatalf("DumpInvariant.String() = %q", got)
	}
	if got := DumpOutageMiss.String(); got != "outage_miss" {
		t.Fatalf("DumpOutageMiss.String() = %q", got)
	}
}

func TestEngineName(t *testing.T) {
	cases := map[uint8]string{
		EngineReference: "reference", EngineKernel: "kernel",
		EngineIndependent: "independent", 99: "unknown",
	}
	for code, want := range cases {
		if got := EngineName(code); got != want {
			t.Fatalf("EngineName(%d) = %q, want %q", code, got, want)
		}
	}
}
