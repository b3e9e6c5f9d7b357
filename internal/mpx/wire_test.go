package mpx

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

func TestWireDataFrameRoundTrip(t *testing.T) {
	cases := []struct {
		name          string
		src, dst, tag int
		seq           uint64
		data          []float64
	}{
		{"basic", 0, 3, 7, 42, []float64{1.5, -2.25, math.Pi}},
		{"empty-payload", 1, 2, 0, 0, nil},
		{"negative-collective-tag", 5, 0, -3, 9, []float64{0.5}},
		{"special-values", 2, 1, 1 << 20, 1, []float64{math.Inf(1), math.Copysign(0, -1), math.MaxFloat64}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame := appendDataFrame(nil, tc.src, tc.dst, tc.tag, tc.seq, tc.data)
			payload, err := readWireFrame(bytes.NewReader(frame), nil)
			if err != nil {
				t.Fatal(err)
			}
			m, err := decodeFrame(payload)
			if err != nil {
				t.Fatal(err)
			}
			if m.kind != frameData || m.src != tc.src || m.dst != tc.dst ||
				m.tag != tc.tag || m.seq != tc.seq {
				t.Fatalf("decoded header %+v", m)
			}
			want := tc.data
			if want == nil {
				want = []float64{}
			}
			got := m.data
			if got == nil {
				got = []float64{}
			}
			// Bit-level comparison: NaN payloads and signed zeros must
			// survive the wire exactly.
			if len(got) != len(want) {
				t.Fatalf("decoded %d values, want %d", len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("value %d: %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		})
	}
}

func TestWireAbortFrameRoundTrip(t *testing.T) {
	frame := encodeAbortFrame("rank 3 panicked: boom")
	payload, err := readWireFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	if m.kind != frameAbort || m.cause != "rank 3 panicked: boom" {
		t.Fatalf("decoded %+v", m)
	}
}

// TestWireFrameCorruptionDetected flips every byte position in turn:
// the CRC (or, for the two length bytes that survive it, the length
// sanity check) must reject each mutation — no corrupt frame decodes.
func TestWireFrameCorruptionDetected(t *testing.T) {
	frame := appendDataFrame(nil, 1, 2, 3, 4, []float64{1, 2, 3})
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		payload, err := readWireFrame(bytes.NewReader(mut), nil)
		if err != nil {
			continue // rejected by length or checksum: good
		}
		// A flipped length byte can shorten the declared frame; the CRC
		// over the shorter payload must then fail. Reaching here with a
		// successfully verified payload means corruption went unnoticed.
		if m, derr := decodeFrame(payload); derr == nil {
			if reflect.DeepEqual(m.data, []float64{1, 2, 3}) && m.src == 1 && m.dst == 2 {
				continue // the flip hit redundant padding that round-tripped identically (impossible for this format)
			}
			t.Fatalf("byte %d flip decoded silently to %+v", i, m)
		}
	}
}

func TestWireTruncationDetected(t *testing.T) {
	frame := appendDataFrame(nil, 1, 2, 3, 4, []float64{1, 2})
	for cut := 1; cut < len(frame); cut++ {
		if _, err := readWireFrame(bytes.NewReader(frame[:cut]), nil); err == nil {
			t.Fatalf("truncation at %d bytes read a full frame", cut)
		}
	}
}

func TestWireHandshake(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHandshake(&buf, 7); err != nil {
		t.Fatal(err)
	}
	shard, err := readHandshake(&buf)
	if err != nil || shard != 7 {
		t.Fatalf("handshake -> shard %d, err %v", shard, err)
	}
	bad := bytes.NewReader([]byte("NOTMAGIC\x00\x00\x00\x07"))
	if _, err := readHandshake(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
}
