package trace

import (
	"errors"
	"fmt"
)

// Corruption bounds of the per-run state Replay, Stats and QoMReports
// keep (DESIGN.md §11). A RunStart claiming more is rejected before
// anything is sized by it, so a corrupt header cannot make a reader
// allocate more than one byte per slot up to maxRunSlots, or one
// counter per sensor up to maxRunSensors.
const (
	maxRunSlots   = 1 << 30
	maxRunSensors = 1 << 16
)

// runCursor checks the run structure of a frame stream: every slot and
// span frame must fall inside a RunStart … RunEnd pair and within that
// run's RunInfo bounds. That check is what makes the consumers' dense
// per-slot and per-sensor state safe to index.
type runCursor struct {
	info RunInfo
	open bool
	runs int64 // completed runs
}

// step checks f against the open run and advances the structure.
func (c *runCursor) step(f *Frame) error {
	switch f.Kind {
	case FrameRunStart:
		if c.open {
			return fmt.Errorf("run %d has no RunEnd frame", c.runs)
		}
		if f.Run.Slots < 0 || f.Run.Slots > maxRunSlots {
			return fmt.Errorf("run %d claims %d slots (limit %d)", c.runs, f.Run.Slots, maxRunSlots)
		}
		if f.Run.Sensors < 0 || f.Run.Sensors > maxRunSensors {
			return fmt.Errorf("run %d claims %d sensors (limit %d)", c.runs, f.Run.Sensors, maxRunSensors)
		}
		c.info, c.open = f.Run, true
	case FrameSlot:
		if !c.open {
			return errors.New("slot record outside a run")
		}
		if r := &f.Rec; r.Slot < 1 || r.Slot > c.info.Slots || r.Sensor < -1 || int(r.Sensor) >= c.info.Sensors {
			return fmt.Errorf("run %d: slot record (slot %d, sensor %d) outside the run's %d slots × %d sensors",
				c.runs, r.Slot, r.Sensor, c.info.Slots, c.info.Sensors)
		}
	case FrameSpan:
		if !c.open {
			return errors.New("span record outside a run")
		}
		if s := &f.Span; s.Start < 1 || s.Len < 0 || s.Len > c.info.Slots-s.Start+1 || s.Events < 0 || s.Events > s.Len {
			return fmt.Errorf("run %d: span (start %d, len %d, events %d) outside the run's %d slots",
				c.runs, s.Start, s.Len, s.Events, c.info.Slots)
		}
	case FrameRunEnd:
		if !c.open {
			return errors.New("RunEnd without RunStart")
		}
		c.open = false
		c.runs++
	}
	return nil
}

// finish reports a stream that ended inside a run.
func (c *runCursor) finish() error {
	if c.open {
		return errors.New("trace ends mid-run (missing RunEnd)")
	}
	return nil
}

// slotFlags is the dense per-run event state of Replay and QoMReports:
// the OR of the flags of every event record at each slot, indexed by
// slot. Per-sensor records and slot markers agree by construction; the
// OR makes the state independent of record order, which matters because
// the independent engine writes its records sensor by sensor, not in
// slot order. The slice grows to the highest slot recorded, never past
// the run's checked RunInfo.Slots, and is reused across runs.
type slotFlags struct {
	flags []uint8
	n     int // flags[:n] holds the open run's state; the rest is zero
}

// or folds an event record's flags into its slot; slot must already be
// checked against the run's bounds.
func (s *slotFlags) or(slot int64, fl uint8, limit int64) {
	if i := int(slot); i >= len(s.flags) {
		grown := make([]uint8, min(max(i+1, 2*len(s.flags), 1<<12), int(limit)+1))
		copy(grown, s.flags[:s.n])
		s.flags = grown
	}
	s.flags[slot] |= fl
	s.n = max(s.n, int(slot)+1)
}

// run returns the open run's state, indexed by slot.
func (s *slotFlags) run() []uint8 { return s.flags[:s.n] }

// reset clears the state for the next run.
func (s *slotFlags) reset() {
	clear(s.flags[:s.n])
	s.n = 0
}
