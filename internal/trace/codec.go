package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format: a 8-byte magic header followed by fixed 20-byte
// little-endian records (pc:8, addr:8, op:1, dst:1, src1:1, src2:1 with
// the taken flag packed into the top bit of op).

var magic = [8]byte{'I', 'P', 'O', 'L', 'Y', 'T', 'R', '1'}

const recSize = 20

const takenBit = 0x80

// ErrBadMagic is returned when a binary trace has the wrong header.
var ErrBadMagic = errors.New("trace: bad magic header")

// Writer encodes records to an io.Writer in the binary format.
type Writer struct {
	w       *bufio.Writer
	wrote   bool
	scratch []byte // batch encode buffer for WriteChunk
}

// NewWriter returns a binary trace writer.  Call Flush when done.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// header writes the magic header once.
func (tw *Writer) header() error {
	if tw.wrote {
		return nil
	}
	if _, err := tw.w.Write(magic[:]); err != nil {
		return err
	}
	tw.wrote = true
	return nil
}

// encodeRec packs one record into its 20-byte wire form.
func encodeRec(buf []byte, r Rec) {
	binary.LittleEndian.PutUint64(buf[0:], r.PC)
	binary.LittleEndian.PutUint64(buf[8:], r.Addr)
	op := uint8(r.Op)
	if r.Taken {
		op |= takenBit
	}
	buf[16] = op
	buf[17] = r.Dst
	buf[18] = r.Src1
	buf[19] = r.Src2
}

// Write encodes one record.
func (tw *Writer) Write(r Rec) error {
	if err := tw.header(); err != nil {
		return err
	}
	var buf [recSize]byte
	encodeRec(buf[:], r)
	_, err := tw.w.Write(buf[:])
	return err
}

// WriteChunk encodes a batch of records — the producer half of the
// chunked trace pipeline (Source on the read side).  The whole batch is
// packed into one scratch buffer and issued as a single write,
// mirroring ReadChunk's batched decode.
func (tw *Writer) WriteChunk(recs []Rec) error {
	if err := tw.header(); err != nil {
		return err
	}
	want := len(recs) * recSize
	if cap(tw.scratch) < want {
		tw.scratch = make([]byte, want)
	}
	buf := tw.scratch[:want]
	for i := range recs {
		encodeRec(buf[i*recSize:], recs[i])
	}
	_, err := tw.w.Write(buf)
	return err
}

// Flush flushes buffered output, writing the header even for an empty
// trace.
func (tw *Writer) Flush() error {
	if !tw.wrote {
		if _, err := tw.w.Write(magic[:]); err != nil {
			return err
		}
		tw.wrote = true
	}
	return tw.w.Flush()
}

// Reader decodes records from an io.Reader in the binary format and
// implements Source.
type Reader struct {
	r       *bufio.Reader
	started bool
	n       uint64 // records decoded so far, for error context
	err     error
	scratch []byte // batch decode buffer for ReadChunk
}

// NewReader returns a binary trace reader.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReader(r)} }

// Err returns the first non-EOF error encountered.
func (tr *Reader) Err() error { return tr.err }

// start consumes and checks the magic header, once.  It reports whether
// records may follow.
func (tr *Reader) start() bool {
	if tr.started {
		return true
	}
	var hdr [8]byte
	if _, err := io.ReadFull(tr.r, hdr[:]); err != nil {
		if err != io.EOF {
			tr.err = err
		} else {
			tr.err = ErrBadMagic
		}
		return false
	}
	if hdr != magic {
		tr.err = ErrBadMagic
		return false
	}
	tr.started = true
	return true
}

// decodeRec unpacks one 20-byte wire record, validating the op byte: a
// corrupt record must surface as a decode error, not flow into the
// simulator as an out-of-range Op.
func (tr *Reader) decodeRec(buf []byte) (Rec, bool) {
	op := buf[16]
	rec := Rec{
		PC:    binary.LittleEndian.Uint64(buf[0:]),
		Addr:  binary.LittleEndian.Uint64(buf[8:]),
		Op:    Op(op &^ takenBit),
		Taken: op&takenBit != 0,
		Dst:   buf[17],
		Src1:  buf[18],
		Src2:  buf[19],
	}
	if !rec.Op.Valid() {
		tr.err = fmt.Errorf("trace: record %d: invalid op byte %#02x (op %d, have %d classes)",
			tr.n, op, uint8(rec.Op), NumOps())
		return Rec{}, false
	}
	tr.n++
	return rec, true
}

// ReadChunk implements Source: it decodes up to len(buf) records in one
// batched read.  It reports eof at the end of the trace and at the
// first corrupt or truncated record; check Err to distinguish clean EOF
// from corruption.
func (tr *Reader) ReadChunk(buf []Rec) (int, bool) {
	if tr.err != nil || !tr.start() {
		return 0, true
	}
	if len(buf) == 0 {
		return 0, false
	}
	want := len(buf) * recSize
	if cap(tr.scratch) < want {
		tr.scratch = make([]byte, want)
	}
	raw := tr.scratch[:want]
	read, err := io.ReadFull(tr.r, raw)
	nrec := read / recSize
	for i := 0; i < nrec; i++ {
		rec, ok := tr.decodeRec(raw[i*recSize:])
		if !ok {
			return i, true
		}
		buf[i] = rec
	}
	if err != nil {
		// A partial trailing record is corruption; ending exactly on a
		// record boundary is clean EOF.
		if read%recSize != 0 {
			tr.err = fmt.Errorf("trace: record %d truncated: %w", tr.n, err)
		} else if err != io.EOF && err != io.ErrUnexpectedEOF {
			tr.err = err
		}
		return nrec, true
	}
	return nrec, false
}
