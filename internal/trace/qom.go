package trace

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"eventcap/internal/stats"
)

// QoMReports rebuilds every run's QoM indicator stream from a trace
// and feeds it through the same streaming batch-means estimator the
// simulation's stats probe uses (stats.QoMReport), so the returned
// reports line up field by field with a manifest's stats block.
//
// Within a run the stream is replayed in slot order, matching the
// engines' chronological feed: a per-slot event record contributes its
// capture indicator (ORed across sensors for fleet runs), a sleep span
// contributes its events as misses in bulk at the span's start slot.
// Batch lengths in the estimator are deterministic in the observation
// sequence, so a single-run trace reproduces the probe's batch-means
// CI bit for bit.
func QoMReports(r io.Reader) ([]stats.Report, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var (
		reports []stats.Report
		cur     runCursor
		events  slotFlags
		spans   []Span // the open run's spans with events
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
			return nil, fmt.Errorf("trace: qom: %w", err)
		}
		switch f.Kind {
		case FrameSlot:
			if f.Rec.Flags&FlagEvent != 0 {
				events.or(f.Rec.Slot, f.Rec.Flags, cur.info.Slots)
			}
		case FrameSpan:
			if f.Span.Events > 0 {
				spans = append(spans, f.Span)
			}
		case FrameRunEnd:
			reports = append(reports, runQoM(events.run(), spans))
			events.reset()
			spans = spans[:0]
		}
	}
	if err := cur.finish(); err != nil {
		return nil, fmt.Errorf("trace: qom: %w", err)
	}
	return reports, nil
}

// runQoM walks one run's event slots in slot order, merged with its
// spans. Span slots never carry per-slot event records (the sensors
// were asleep), so in a valid trace no slot holds both.
func runQoM(events []uint8, spans []Span) stats.Report {
	slices.SortFunc(spans, func(a, b Span) int { return cmp.Compare(a.Start, b.Start) })
	var qom stats.BatchMeans
	for slot, flags := range events {
		if flags == 0 {
			continue
		}
		for len(spans) > 0 && spans[0].Start <= int64(slot) {
			qom.AddN(0, spans[0].Events)
			spans = spans[1:]
		}
		if flags&FlagCaptured != 0 {
			qom.Add(1)
		} else {
			qom.Add(0)
		}
	}
	for _, s := range spans {
		qom.AddN(0, s.Events)
	}
	return stats.QoMReport(&qom, stats.DefaultCILevel)
}

// PoolQoM folds per-run reports into the pooled estimate tracetool
// prints next to them.
func PoolQoM(reports []stats.Report) stats.Report {
	var p stats.Pool
	for _, r := range reports {
		p.Add(r)
	}
	return p.Report(stats.DefaultCILevel)
}
