package tracestore

import (
	"encoding/binary"
	"testing"

	"repro/internal/trace"
)

// packFrame lays out a frame from its parts, as the test reads the
// format: the record count, the address words, then the store-bit
// words, all little-endian.
func packFrame(addrs []uint64, store func(i int) bool) []byte {
	n := len(addrs)
	blob := binary.LittleEndian.AppendUint64(nil, uint64(n))
	for _, a := range addrs {
		blob = binary.LittleEndian.AppendUint64(blob, a)
	}
	for w := 0; w < (n+63)/64; w++ {
		var bits uint64
		for b := 0; b < 64 && 64*w+b < n; b++ {
			if store(64*w + b) {
				bits |= 1 << b
			}
		}
		blob = binary.LittleEndian.AppendUint64(blob, bits)
	}
	return blob
}

// replayRange replays records [lo, hi) of a frame in chunks of an odd
// capacity, so chunk boundaries fall inside store-bit words.
func replayRange(t *testing.T, f frame, lo, hi uint64) []trace.Rec {
	t.Helper()
	var got []trace.Rec
	buf := make([]trace.Rec, 0, 100)
	err := replayPackedChunks(ctxBg(), f, lo, hi,
		func() []trace.Rec { return buf[:0] },
		func(recs []trace.Rec) { got = append(got, recs...) })
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// FuzzPackedFrame feeds arbitrary bytes and record limits to
// parseFrame, the framing check a blob loaded from the trace store's
// persistent tier passes before the store holds it as an entry's frame,
// and replays what it accepts.  It must never panic.  A rejected frame
// yields nothing to replay.  An accepted frame frames exactly its
// length in at most max records, and replays exactly those records,
// each Op and Addr equal to the frame's words as this test decodes
// them, in full and over an inner window.
func FuzzPackedFrame(f *testing.F) {
	for _, n := range []uint64{0, 1, 64, 65, 1000} {
		addrs := make([]uint64, n)
		for i := range addrs {
			addrs[i] = uint64(i) * 0x9e3779b97f4a7c15
		}
		frame := packFrame(addrs, func(i int) bool { return i%3 == 0 })
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
		fr := parseFrame(blob, max)
		if fr == nil {
			return
		}
		n := binary.LittleEndian.Uint64(blob)
		if n > max || uint64(len(blob)) != 8+8*n+8*((n+63)/64) {
			t.Fatalf("accepted a %d-byte frame of %d records under the limit %d", len(blob), n, max)
		}
		got := replayRange(t, fr, 0, max)
		if uint64(len(got)) != n {
			t.Fatalf("a frame of %d records replayed %d", n, len(got))
		}
		for i, r := range got {
			word := binary.LittleEndian.Uint64(blob[8+8*n+8*uint64(i/64):])
			want := trace.Rec{Op: trace.OpLoad, Addr: binary.LittleEndian.Uint64(blob[8+8*i:])}
			if word>>(i%64)&1 == 1 {
				want.Op = trace.OpStore
			}
			if r != want {
				t.Fatalf("record %d replayed as %+v, want %+v", i, r, want)
			}
		}
		lo, hi := n/3, n-n/3
		window := replayRange(t, fr, lo, hi)
		if uint64(len(window)) != hi-lo {
			t.Fatalf("window [%d, %d) replayed %d records", lo, hi, len(window))
		}
		for i, r := range window {
			if r != got[lo+uint64(i)] {
				t.Fatalf("window [%d, %d): record %d differs from the full replay", lo, hi, lo+uint64(i))
			}
		}
	})
}
