package mpx

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// lyingLengthFrame is the eleven bytes of ROADMAP item 4c: a header
// declaring a 2 GiB − 1 payload, then three bytes and the end of the
// stream (also testdata/fuzz/FuzzReadWireFrame/lying-length).
var lyingLengthFrame = []byte{0x7f, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3}

// allocatedBy returns the bytes fn allocated (TotalAlloc only grows, so
// a concurrent collection cannot hide anything).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadWireFrameLyingLengthIsCheap is the regression test for the
// 2 GiB allocation: the declared length used to be allocated before a
// single payload byte arrived.
func TestReadWireFrameLyingLengthIsCheap(t *testing.T) {
	var err error
	got := allocatedBy(func() { _, err = readWireFrame(bytes.NewReader(lyingLengthFrame), nil) })
	if err == nil {
		t.Fatal("a frame cut short after three payload bytes was read whole")
	}
	if got >= 1<<20 {
		t.Fatalf("eleven bytes off the wire allocated %d bytes; want < 1 MiB", got)
	}
}

// TestReadWireFrameGrowsPastBuffer pins the chunked path on an honest
// frame: a payload several chunks long arrives intact whether the
// caller's buffer is absent, too small or large enough.
func TestReadWireFrameGrowsPastBuffer(t *testing.T) {
	data := make([]float64, 3*wireReadChunk/8+5)
	for i := range data {
		data[i] = float64(i)
	}
	frame := appendDataFrame(nil, 2, 3, 4, 5, data)
	for _, buf := range [][]byte{nil, make([]byte, 100), make([]byte, wireReadChunk+1), make([]byte, len(frame))} {
		payload, err := readWireFrame(bytes.NewReader(frame), buf)
		if err != nil {
			t.Fatalf("buffer of %d: %v", cap(buf), err)
		}
		if !bytes.Equal(payload, frame[wireHdr:]) {
			t.Fatalf("buffer of %d: payload differs from what was framed", cap(buf))
		}
		if cap(buf) >= len(payload) && &payload[0] != &buf[0] {
			t.Errorf("buffer of %d fits the payload but was not reused", cap(buf))
		}
	}
}

// FuzzReadWireFrame feeds arbitrary bytes to the frame reader as a
// stream: it may not panic or hang, what it returns must be the bytes
// that were framed, and it may not allocate more than a constant beyond
// a small multiple of the input however large a length the header
// declares. The second read, into the first one's buffer, covers the
// reuse path the receive loop runs.
func FuzzReadWireFrame(f *testing.F) {
	f.Add(appendDataFrame(nil, 0, 1, 7, 42, []float64{1.5, math.Inf(-1)}))
	f.Add(encodeAbortFrame("rank 3 panicked"))
	f.Add(encodeHeartbeatFrame())
	f.Add(append(encodeHeartbeatFrame(), appendDataFrame(nil, 1, 0, 0, 0, nil)...))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0x80, 0, 0, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, stream []byte) {
		var payload []byte
		var err error
		got := allocatedBy(func() { payload, err = readWireFrame(bytes.NewReader(stream), nil) })
		if limit := uint64(4*len(stream) + 1<<20); got > limit {
			t.Fatalf("%d input bytes allocated %d (limit %d)", len(stream), got, limit)
		}
		if err != nil {
			return
		}
		if n := int(binary.BigEndian.Uint32(stream)); n != len(payload) || !bytes.Equal(payload, stream[wireHdr:wireHdr+n]) {
			t.Fatalf("read %d payload bytes that are not the %d framed ones", len(payload), n)
		}
		again, err := readWireFrame(bytes.NewReader(stream), payload[:0])
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("reading into the previous buffer: err %v, equal %v", err, bytes.Equal(again, payload))
		}
		decodeFrame(payload, nil) // may reject, may not panic
	})
}

// FuzzDecodeFrame holds decode ∘ encode to the identity for the three
// frame kinds over arbitrary field values (the raw bytes serve as the
// float64 bit patterns and as the abort cause), and arbitrary payloads
// to an error at worst.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte("rank 3 panicked: boom"), int32(5), int32(0), int32(-3), uint64(7))
	f.Add([]byte{}, int32(0), int32(0), int32(0), uint64(0))
	f.Add([]byte{frameData, 0, 0, 0, 1, 0xff}, int32(-1), int32(1<<30), int32(math.MinInt32), uint64(math.MaxUint64))
	f.Add(bytes.Repeat([]byte{0x7f, 0xf8, 0, 0, 0, 0, 0, 1}, 3), int32(1), int32(2), int32(3), uint64(4)) // NaN payloads
	f.Fuzz(func(t *testing.T, raw []byte, src, dst, tag int32, seq uint64) {
		decodeFrame(raw, nil) // may reject, may not panic

		data := make([]float64, len(raw)/8)
		for i := range data {
			data[i] = math.Float64frombits(binary.BigEndian.Uint64(raw[8*i:]))
		}
		// A released payload comes back holding its last message: the
		// decode must overwrite every value of it.
		dirty := func(n int) []float64 {
			b := make([]float64, n)
			for i := range b {
				b[i] = math.Float64frombits(0x7ff8_dead_beef_0001)
			}
			return b
		}
		open := func(frame []byte) wireMsg {
			t.Helper()
			payload, err := readWireFrame(bytes.NewReader(frame), nil)
			if err != nil {
				t.Fatalf("own frame rejected: %v", err)
			}
			m, err := decodeFrame(payload, dirty)
			if err != nil {
				t.Fatalf("own frame rejected: %v", err)
			}
			return m
		}
		m := open(appendDataFrame(nil, int(src), int(dst), int(tag), seq, data))
		if m.kind != frameData || m.src != int(src) || m.dst != int(dst) ||
			m.tag != int(tag) || m.seq != seq || len(m.data) != len(data) {
			t.Fatalf("data frame decoded to %+v", m)
		}
		for i := range data {
			if math.Float64bits(m.data[i]) != math.Float64bits(data[i]) {
				t.Fatalf("value %d: %x, want %x", i, math.Float64bits(m.data[i]), math.Float64bits(data[i]))
			}
		}
		if m := open(encodeAbortFrame(string(raw))); m.kind != frameAbort || m.cause != string(raw) {
			t.Fatalf("abort frame decoded to %+v", m)
		}
		if m := open(encodeHeartbeatFrame()); m.kind != frameHeartbeat {
			t.Fatalf("heartbeat frame decoded to %+v", m)
		}
	})
}
