package trace

import (
	"fmt"
	"io"
)

// Summary is a trace-only reconstruction of a run set's results: every
// field below is re-derived purely from the frame stream, then checked
// against each run's RunEnd totals, so a Summary that comes back
// without error is a self-verified audit of the trace. cmd/tracetool's
// replay subcommand compares it against the run manifest's metrics
// block.
type Summary struct {
	Runs    int64
	Records int64
	Spans   int64

	// Events/Captures count event slots (captured by at least one
	// sensor), matching sim.Result and the sim.events / sim.captures
	// counters.
	Events   int64
	Captures int64
	// The miss decomposition: Captures + MissAsleep + MissNoEnergy ==
	// Events (spans contribute all their events to MissAsleep).
	MissAsleep   int64
	MissNoEnergy int64

	// Activations and SensorCaptures count per-sensor records, so with
	// multiple sensors they can exceed the slot-level totals above;
	// Wasted = Activations - SensorCaptures (the sim.wasted_activations
	// identity).
	Activations    int64
	SensorCaptures int64
	Denied         int64
	Wasted         int64

	SpanSlots  int64
	SpanEvents int64

	// QoM is Captures/Events over the whole trace.
	QoM float64
}

// Replay reconstructs a Summary from a trace stream, verifying each
// run's reconstruction against its RunEnd frame. A trace written with a
// full-trace Writer always replays; flight-recorder rings are not
// replayable (they are bounded windows, not complete histories).
func Replay(r io.Reader) (*Summary, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	sum := &Summary{}
	var (
		cur                   runCursor
		events                slotFlags
		spanEvents, spanSlots int64
	)
	for {
		f, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := cur.step(f); err != nil {
			return nil, fmt.Errorf("trace: replay: %w", err)
		}
		switch f.Kind {
		case FrameSlot:
			sum.Records++
			rec := &f.Rec
			if rec.Flags&FlagEvent != 0 {
				events.or(rec.Slot, rec.Flags, cur.info.Slots)
			}
			if rec.Sensor >= 0 {
				if rec.Flags&FlagActive != 0 {
					sum.Activations++
				}
				if rec.Flags&FlagDenied != 0 {
					sum.Denied++
				}
				if rec.Flags&FlagCaptured != 0 {
					sum.SensorCaptures++
				}
			}
		case FrameSpan:
			sum.Spans++
			spanEvents += f.Span.Events
			spanSlots += f.Span.Len
		case FrameRunEnd:
			var slotEvents, captures, noenergy int64
			for _, flags := range events.run() {
				if flags == 0 {
					continue
				}
				slotEvents++
				switch {
				case flags&FlagCaptured != 0:
					captures++
				case flags&FlagDenied != 0:
					noenergy++
				}
			}
			events.reset()
			total := slotEvents + spanEvents
			if total != f.End.Events || captures != f.End.Captures {
				return nil, fmt.Errorf(
					"trace: replay: run %d reconstructed events=%d captures=%d, but RunEnd recorded events=%d captures=%d",
					sum.Runs, total, captures, f.End.Events, f.End.Captures)
			}
			sum.Runs++
			sum.Events += total
			sum.Captures += captures
			sum.MissNoEnergy += noenergy
			sum.MissAsleep += total - captures - noenergy
			sum.SpanEvents += spanEvents
			sum.SpanSlots += spanSlots
			spanEvents, spanSlots = 0, 0
		}
	}
	if err := cur.finish(); err != nil {
		return nil, fmt.Errorf("trace: replay: %w", err)
	}
	sum.Wasted = sum.Activations - sum.SensorCaptures
	if sum.Events > 0 {
		sum.QoM = float64(sum.Captures) / float64(sum.Events)
	}
	return sum, nil
}
