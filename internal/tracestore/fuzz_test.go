package tracestore

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzPackedFrame feeds arbitrary bytes and record limits to
// decodePacked, the reader of the trace store's on-disk packed frames.
// It must never panic, and a frame it accepts must hold at most max
// records in arrays of exactly the framed lengths, and re-encode
// through encodePacked to the same bytes.
func FuzzPackedFrame(f *testing.F) {
	for _, n := range []uint64{0, 1, 64, 65, 1000} {
		addrs := make([]uint64, n)
		stores := make([]uint64, (n+63)/64)
		for i := range addrs {
			addrs[i] = uint64(i) * 0x9e3779b97f4a7c15
			if i%3 == 0 {
				stores[i/64] |= 1 << (i % 64)
			}
		}
		frame := encodePacked(addrs, stores, n)
		f.Add(frame, n)
		f.Add(frame, ^uint64(0))
		f.Add(frame[:len(frame)-1], n)                     // truncated by one byte
		f.Add(frame[:len(frame)/2], n)                     // truncated mid-frame
		f.Add(append(frame[:len(frame):len(frame)], 0), n) // an extra trailing byte
		if n > 0 {
			f.Add(frame, n-1) // one record over the limit
		}
	}
	// Count fields whose byte sizes overflow uint64 arithmetic.
	for _, n := range []uint64{1 << 61, ^uint64(0)} {
		count := binary.LittleEndian.AppendUint64(nil, n)
		f.Add(count, ^uint64(0))
		f.Add(append(count, make([]byte, 64)...), ^uint64(0))
	}
	f.Fuzz(func(t *testing.T, blob []byte, max uint64) {
		addrs, stores, n, ok := decodePacked(blob, max)
		if !ok {
			return
		}
		if n > max {
			t.Fatalf("accepted %d records past the limit %d", n, max)
		}
		if uint64(len(addrs)) != n || uint64(len(stores)) != (n+63)/64 {
			t.Fatalf("%d records decoded to %d addresses and %d store words", n, len(addrs), len(stores))
		}
		if again := encodePacked(addrs, stores, n); !bytes.Equal(again, blob) {
			t.Fatalf("re-encoding a %d-byte frame gave %d different bytes", len(blob), len(again))
		}
	})
}
