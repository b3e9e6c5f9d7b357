package ckpt

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the generation decoder. It may
// not panic; an image it accepts must be exactly the encoding of what
// it decoded to; and that image torn at, or with one bit flipped at,
// a fuzzed position must be rejected, since both frames carry a CRC32
// that catches every single-bit error.
func FuzzDecode(f *testing.F) {
	meta := testMeta(3)
	meta.Version = MetaVersion
	valid, err := encode(meta, []byte("hierarchy bytes"))
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-4] ^= 0x10
	huge := binary.BigEndian.AppendUint32([]byte(magic), 1<<30)
	huge = append(huge, 0, 0, 0, 0, 'x')
	f.Add(valid, uint32(0))
	f.Add(v1Image(f, []byte("hierarchy bytes")), uint32(0))
	f.Add(valid[:len(valid)/2], uint32(0))
	f.Add(flipped, uint32(0))
	f.Add(huge, uint32(0))
	f.Fuzz(func(t *testing.T, img []byte, at uint32) {
		meta, payload, err := decode(img)
		if err != nil {
			return
		}
		again, err := encode(meta, payload)
		if err != nil {
			t.Fatalf("re-encoding an accepted image: %v", err)
		}
		if !bytes.Equal(again, img) {
			t.Fatalf("accepted %d-byte image re-encodes to %d different bytes", len(img), len(again))
		}
		if _, _, err := decode(img[:int(at)%len(img)]); err == nil {
			t.Fatalf("image torn to %d of %d bytes decoded", int(at)%len(img), len(img))
		}
		bit := int(at) % (8 * len(img))
		corrupt := bytes.Clone(img)
		corrupt[bit/8] ^= 1 << (bit % 8)
		if _, _, err := decode(corrupt); err == nil {
			t.Fatalf("image with bit %d flipped decoded", bit)
		}
	})
}
