package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// Frame is one decoded trace frame; Kind discriminates which field is
// meaningful and the others are zero. All fields are comparable values,
// so two frames can be compared with == (Diff relies on this).
type Frame struct {
	Kind byte
	Run  RunInfo
	Rec  Rec
	Span Span
	End  RunEnd
}

// Slot returns the frame's slot anchor for human-facing reports: the
// record's slot, a span's first slot, and 0 for run boundaries.
func (f *Frame) Slot() int64 {
	switch f.Kind {
	case FrameSlot:
		return f.Rec.Slot
	case FrameSpan:
		return f.Span.Start
	}
	return 0
}

// maxStringLen bounds decoded string fields so a corrupt length prefix
// cannot trigger a huge allocation.
const maxStringLen = 1 << 16

const (
	// readBufSize is the size of the Reader's buffer: the window onto
	// its source plus one sentinel byte.
	readBufSize = 1 << 16
	// maxFixedFrame is the longest encoding of any frame without string
	// fields (a slot frame: kind, four varints, two bytes, three
	// floats). Next buffers this much before decoding, so a whole frame
	// decodes from the slice without further refills.
	maxFixedFrame = 1 + 4*binary.MaxVarintLen64 + 2 + 3*8
)

var (
	errVarintOverflow = errors.New("varint overflows a 64-bit integer")
	errUnknownKind    = errors.New("unknown frame kind")
)

// Reader decodes a trace stream produced by Writer. It owns one
// fixed-size buffer refilled from its source and decodes each frame
// straight from that buffer into a Frame it also owns: decoding a slot,
// span or run-end frame allocates nothing.
type Reader struct {
	src      io.Reader
	buf      []byte // the window, plus a sentinel byte at buf[end]
	pos, end int    // unread window buf[pos:end]
	srcErr   error  // sticky source error (io.EOF at end of stream)
	bad      error  // first decoding failure of the current frame
	last     int64  // previous frame's last slot, for delta decoding
	f        Frame
}

// NewReader checks the magic header and returns a frame reader.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{src: r, buf: make([]byte, readBufSize)}
	tr.fill(len(Magic))
	if n := tr.end - tr.pos; n < len(Magic) {
		err := tr.shortErr()
		if n == 0 && tr.srcErr == io.EOF {
			err = io.EOF
		}
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic := tr.buf[:len(Magic)]; string(magic) != Magic {
		return nil, fmt.Errorf("trace: bad magic %q (not a trace file?)", magic)
	}
	tr.pos = len(Magic)
	return tr, nil
}

// fill makes at least n bytes readable in buf[pos:end], unless the
// source ends or fails first (then srcErr is set).
func (r *Reader) fill(n int) {
	if r.end-r.pos >= n || r.srcErr != nil {
		return
	}
	r.end = copy(r.buf, r.buf[r.pos:r.end])
	r.pos = 0
	m, err := io.ReadAtLeast(r.src, r.buf[r.end:len(r.buf)-1], n-r.end)
	if err == io.ErrUnexpectedEOF {
		err = io.EOF
	}
	r.end += m
	r.srcErr = err
	r.buf[r.end] = 0x80
}

// shortErr is the error for a frame the buffered bytes cannot complete:
// a source failure, or truncation.
func (r *Reader) shortErr() error {
	if r.srcErr != nil && r.srcErr != io.EOF {
		return r.srcErr
	}
	return io.ErrUnexpectedEOF
}

// fail records the current frame's first decoding failure and empties
// the window, so every later field of the frame fails too.
func (r *Reader) fail(err error) {
	if r.bad == nil {
		r.bad = err
	}
	r.pos = r.end
}

func (r *Reader) byte() byte {
	if r.pos == r.end {
		r.fail(r.shortErr())
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

// uvarint decodes one-byte varints inline; an empty window reads the
// sentinel, a continuation byte, so it takes the slow path too.
func (r *Reader) uvarint() uint64 {
	if b := r.buf[r.pos]; b < 0x80 {
		r.pos++
		return uint64(b)
	}
	return r.uvarintSlow()
}

// uvarintSlow decodes a multi-byte varint, classifying failures the way
// binary.ReadUvarint does: ten continuation bytes, or a tenth byte
// above 1, overflow; fewer bytes before the stream ends truncate.
func (r *Reader) uvarintSlow() uint64 {
	v, n := binary.Uvarint(r.buf[r.pos:r.end])
	switch {
	case n > 0:
		r.pos += n
	case n < 0 || r.end-r.pos >= binary.MaxVarintLen64:
		r.fail(errVarintOverflow)
	default:
		r.fail(r.shortErr())
	}
	return v
}

// zigzag decodes a signed varint's value.
func zigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func (r *Reader) float() float64 {
	if r.end-r.pos < 8 {
		r.fail(r.shortErr())
		return 0
	}
	r.pos += 8
	return math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.pos-8:]))
}

// string decodes a length-prefixed string, refilling the window as
// needed (strings are the only fields that may outgrow it). It makes
// one allocation, for the string itself.
func (r *Reader) string() string {
	r.fill(binary.MaxVarintLen64)
	n := r.uvarint()
	if r.bad != nil {
		return ""
	}
	if n > maxStringLen {
		r.fail(fmt.Errorf("string length %d exceeds limit", n))
		return ""
	}
	var sb strings.Builder
	sb.Grow(int(n))
	for rest := int(n); rest > 0; {
		r.fill(1)
		if r.pos == r.end {
			r.fail(r.shortErr())
			return ""
		}
		k := min(rest, r.end-r.pos)
		sb.Write(r.buf[r.pos : r.pos+k])
		r.pos += k
		rest -= k
	}
	return sb.String()
}

// Next decodes the next frame. It returns io.EOF (exactly) at a clean
// end of stream and a wrapped error on truncation or corruption. The
// returned frame is owned by the Reader and valid only until the next
// call to Next.
func (r *Reader) Next() (*Frame, error) {
	if r.end-r.pos < maxFixedFrame {
		r.fill(maxFixedFrame)
	}
	if r.pos == r.end {
		if r.srcErr == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("trace: reading frame kind: %w", r.srcErr)
	}
	kind := r.buf[r.pos]
	r.pos++
	r.bad = nil
	f := &r.f
	if f.Kind != kind {
		*f = Frame{Kind: kind}
	}
	switch kind {
	case FrameRunStart:
		f.Run = RunInfo{
			Engine: r.byte(), Sensors: int(r.uvarint()), Seed: r.uvarint(), Slots: int64(r.uvarint()),
			BatteryCap: r.float(), Cost: r.float(),
		}
		f.Run.Policy = r.string()
		f.Run.Dist = r.string()
		f.Run.Recharge = r.string()
		r.last = 0
	case FrameSlot:
		f.Rec = Rec{
			Slot: r.last + zigzag(r.uvarint()), Sensor: int32(zigzag(r.uvarint())), Engine: r.byte(), Flags: r.byte(),
			H: int32(zigzag(r.uvarint())), F: int32(zigzag(r.uvarint())), Prob: r.float(), Battery: r.float(), Recharge: r.float(),
		}
		r.last = f.Rec.Slot
	case FrameSpan:
		f.Span = Span{
			Start: r.last + zigzag(r.uvarint()), Len: int64(r.uvarint()), Events: int64(r.uvarint()),
			State: r.byte(), Delivered: r.float(), Battery: r.float(),
		}
		r.last = f.Span.Start + f.Span.Len - 1
	case FrameRunEnd:
		f.End = RunEnd{Events: int64(r.uvarint()), Captures: int64(r.uvarint())}
	default:
		r.bad = errUnknownKind
	}
	if r.bad != nil {
		return nil, fmt.Errorf("trace: decoding frame kind 0x%02x: %w", kind, r.bad)
	}
	return f, nil
}
