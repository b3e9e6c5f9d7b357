package mpx

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// Wire format, reusing the CRC32 framing idiom of internal/ckpt: a
// connection handshake (magic + shard id) followed by a stream of
// length-prefixed checksummed frames, each tagged by (src, dst, tag,
// seq) so the receiver can verify per-pair FIFO continuity.
//
//	handshake: "SAMRWIR2" | uint32 BE shard id        (12 bytes)
//	frame:     uint32 BE payload len | uint32 BE CRC32-IEEE | payload
//	payload:   kind byte (1 data, 2 abort, 3 heartbeat) | body
//	data body: int32 BE src | int32 BE dst | int32 BE tag |
//	           uint64 BE seq | count × uint64 BE float64 bits
//	abort body: UTF-8 cause
//	heartbeat: no body — its arrival alone refreshes the peer's read
//	           deadline, so an idle-but-alive shard is distinguishable
//	           from a dead or stopped one
//
// Tags travel as int32 two's complement. A frame carries no phase
// stamp: the first wire failure detaches the run from the wire for
// good, so no frame from a failed phase can meet a later one.
const (
	wireMagic = "SAMRWIR2"
	// wireHdr is the per-frame length + CRC prefix.
	wireHdr = 8
	// maxWireFrame caps a frame's declared length; larger is a corrupt
	// length field, not a plausible message.
	maxWireFrame = 1 << 31
	// wireReadChunk is how far readWireFrame grows its buffer ahead of
	// the bytes that have arrived.
	wireReadChunk = 64 << 10

	frameData      = 1
	frameAbort     = 2
	frameHeartbeat = 3

	// dataHdr is the data body's fixed prefix: kind + src + dst + tag +
	// seq.
	dataHdr = 1 + 4 + 4 + 4 + 8
)

// wireMsg is one decoded frame.
type wireMsg struct {
	kind byte
	// data frames
	src, dst, tag int
	seq           uint64
	data          []float64
	// abort frames
	cause string
}

// appendDataFrame appends one framed data message to buf and returns
// the extended slice, so a sender reuses one buffer across frames.
func appendDataFrame(buf []byte, src, dst, tag int, seq uint64, data []float64) []byte {
	start, total := len(buf), wireHdr+dataHdr+8*len(data)
	buf = slices.Grow(buf, total)[:start+total]
	frame := buf[start:]
	p := frame[wireHdr:]
	p[0] = frameData
	binary.BigEndian.PutUint32(p[1:5], uint32(int32(src)))
	binary.BigEndian.PutUint32(p[5:9], uint32(int32(dst)))
	binary.BigEndian.PutUint32(p[9:13], uint32(int32(tag)))
	binary.BigEndian.PutUint64(p[13:21], seq)
	off := dataHdr
	for _, v := range data {
		binary.BigEndian.PutUint64(p[off:off+8], math.Float64bits(v))
		off += 8
	}
	sealFrame(frame)
	return buf
}

// encodeAbortFrame assembles one framed abort notification.
func encodeAbortFrame(cause string) []byte {
	buf := make([]byte, wireHdr+1+len(cause))
	p := buf[wireHdr:]
	p[0] = frameAbort
	copy(p[1:], cause)
	sealFrame(buf)
	return buf
}

// encodeHeartbeatFrame assembles one framed liveness beacon.
func encodeHeartbeatFrame() []byte {
	buf := make([]byte, wireHdr+1)
	buf[wireHdr] = frameHeartbeat
	sealFrame(buf)
	return buf
}

// sealFrame writes the length + CRC prefix over the payload in place.
func sealFrame(buf []byte) {
	payload := buf[wireHdr:]
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
}

// decodeFrame parses and validates one payload (the bytes after the
// length + CRC prefix, already checksum-verified by readWireFrame).
func decodeFrame(payload []byte) (wireMsg, error) {
	if len(payload) < 1 {
		return wireMsg{}, fmt.Errorf("mpx: empty frame payload")
	}
	m := wireMsg{kind: payload[0]}
	switch m.kind {
	case frameData:
		if len(payload) < dataHdr {
			return wireMsg{}, fmt.Errorf("mpx: truncated data frame (%d bytes)", len(payload))
		}
		if (len(payload)-dataHdr)%8 != 0 {
			return wireMsg{}, fmt.Errorf("mpx: data frame body not a float64 multiple (%d bytes)", len(payload)-dataHdr)
		}
		m.src = int(int32(binary.BigEndian.Uint32(payload[1:5])))
		m.dst = int(int32(binary.BigEndian.Uint32(payload[5:9])))
		m.tag = int(int32(binary.BigEndian.Uint32(payload[9:13])))
		m.seq = binary.BigEndian.Uint64(payload[13:21])
		count := (len(payload) - dataHdr) / 8
		m.data = make([]float64, count)
		off := dataHdr
		for i := range m.data {
			m.data[i] = math.Float64frombits(binary.BigEndian.Uint64(payload[off : off+8]))
			off += 8
		}
	case frameAbort:
		m.cause = string(payload[1:])
	case frameHeartbeat:
		// Liveness only: the kind already parsed above is all there is.
	default:
		return wireMsg{}, fmt.Errorf("mpx: unknown frame kind %d", m.kind)
	}
	return m, nil
}

// readWireFrame reads one length-prefixed frame from r and verifies
// its checksum, returning the raw payload. The payload is read into
// buf's storage when it fits, so a caller that decodes each payload
// before the next read passes the previous result back in. Past buf's
// capacity the storage grows a chunk at a time as the bytes arrive: the
// declared length is the peer's claim, and a false one costs what the
// peer really sent plus one chunk, not the 2 GiB it may name.
func readWireFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [wireHdr]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[0:4]))
	sum := binary.BigEndian.Uint32(hdr[4:8])
	if n > maxWireFrame {
		return nil, fmt.Errorf("mpx: absurd frame length %d", n)
	}
	payload := buf[:0]
	for len(payload) < n {
		step := n - len(payload)
		if step > cap(payload)-len(payload) {
			step = min(step, wireReadChunk)
			payload = slices.Grow(payload, step)
		}
		if _, err := io.ReadFull(r, payload[len(payload):len(payload)+step]); err != nil {
			return nil, err
		}
		payload = payload[:len(payload)+step]
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("mpx: frame checksum mismatch: stored %08x, computed %08x", sum, got)
	}
	return payload, nil
}

// writeHandshake sends the connection preamble identifying the local
// shard.
func writeHandshake(w io.Writer, shard int) error {
	var buf [len(wireMagic) + 4]byte
	copy(buf[:], wireMagic)
	binary.BigEndian.PutUint32(buf[len(wireMagic):], uint32(shard))
	_, err := w.Write(buf[:])
	return err
}

// readHandshake validates the preamble and returns the peer's shard.
func readHandshake(r io.Reader) (int, error) {
	var buf [len(wireMagic) + 4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	if string(buf[:len(wireMagic)]) != wireMagic {
		return 0, fmt.Errorf("mpx: bad handshake magic %q", buf[:len(wireMagic)])
	}
	return int(binary.BigEndian.Uint32(buf[len(wireMagic):])), nil
}
