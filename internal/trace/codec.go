package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
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

// TextWriter encodes records in the whitespace-separated human-readable
// text form, one record per line: "pc op addr dst src1 src2 taken".
// It is the streaming producer half of the text codec (TextReader on
// the read side); call Flush when done.
type TextWriter struct {
	w *bufio.Writer
}

// NewTextWriter returns a text-format trace writer.
func NewTextWriter(w io.Writer) *TextWriter { return &TextWriter{w: bufio.NewWriter(w)} }

// WriteChunk encodes a batch of records.
func (tw *TextWriter) WriteChunk(recs []Rec) error {
	for _, r := range recs {
		taken := 0
		if r.Taken {
			taken = 1
		}
		if _, err := fmt.Fprintf(tw.w, "%#x %s %#x %d %d %d %d\n",
			r.PC, r.Op, r.Addr, r.Dst, r.Src1, r.Src2, taken); err != nil {
			return err
		}
	}
	return nil
}

// Flush flushes buffered output.
func (tw *TextWriter) Flush() error { return tw.w.Flush() }

// WriteText writes records in the text form in one call.
func WriteText(w io.Writer, recs []Rec) error {
	tw := NewTextWriter(w)
	if err := tw.WriteChunk(recs); err != nil {
		return err
	}
	return tw.Flush()
}

// parseHex parses a 0x-prefixed hexadecimal field.  The prefix is
// mandatory: the text format always writes it (%#x), and accepting bare
// digit runs would silently read the decimal-looking "123" as 0x123 —
// exactly the ambiguity a positioned error should reject instead.
func parseHex(field string) (uint64, error) {
	rest, ok := strings.CutPrefix(field, "0x")
	if !ok {
		rest, ok = strings.CutPrefix(field, "0X")
	}
	if !ok {
		return 0, fmt.Errorf("%q is not 0x-prefixed hex (decimal input is ambiguous and rejected)", field)
	}
	v, err := strconv.ParseUint(rest, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("%q is not 0x-prefixed hex", field)
	}
	return v, nil
}

// TextReader decodes the format produced by WriteText, streaming line
// by line, and implements Source.  Malformed lines surface as
// positioned errors via Err.
type TextReader struct {
	sc   *bufio.Scanner
	line int
	err  error
	eof  bool
}

// NewTextReader returns a text-format trace reader.
func NewTextReader(r io.Reader) *TextReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return &TextReader{sc: sc}
}

// Err returns the first error encountered.
func (tr *TextReader) Err() error { return tr.err }

// ReadChunk implements Source.  Blank lines and lines starting with '#'
// (after trimming surrounding white space) are skipped.  It reports eof
// at the end of the text and at the first malformed line; check Err to
// distinguish.
func (tr *TextReader) ReadChunk(buf []Rec) (int, bool) {
	if tr.err != nil || tr.eof {
		return 0, true
	}
	n := 0
	for n < len(buf) && tr.sc.Scan() {
		tr.line++
		line := strings.TrimSpace(tr.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rec, err := tr.parseLine(line)
		if err != nil {
			tr.err = err
			return n, true
		}
		buf[n] = rec
		n++
	}
	if n == len(buf) {
		return n, false
	}
	if err := tr.sc.Err(); err != nil {
		tr.err = fmt.Errorf("trace: line %d: %w", tr.line, err)
	}
	tr.eof = true
	return n, true
}

// parseLine decodes one non-blank record line.
func (tr *TextReader) parseLine(line string) (Rec, error) {
	f := strings.Fields(line)
	if len(f) != 7 {
		return Rec{}, fmt.Errorf("trace: line %d: want 7 fields, got %d", tr.line, len(f))
	}
	pc, err := parseHex(f[0])
	if err != nil {
		return Rec{}, fmt.Errorf("trace: line %d: pc: %v", tr.line, err)
	}
	op, err := parseOp(f[1])
	if err != nil {
		return Rec{}, fmt.Errorf("trace: line %d: %v", tr.line, err)
	}
	addr, err := parseHex(f[2])
	if err != nil {
		return Rec{}, fmt.Errorf("trace: line %d: addr: %v", tr.line, err)
	}
	var regs [3]uint8
	for i := 0; i < 3; i++ {
		v, err := strconv.ParseUint(f[3+i], 10, 8)
		if err != nil {
			return Rec{}, fmt.Errorf("trace: line %d: reg: %v", tr.line, err)
		}
		regs[i] = uint8(v)
	}
	taken, err := strconv.ParseUint(f[6], 10, 1)
	if err != nil {
		return Rec{}, fmt.Errorf("trace: line %d: taken: %v", tr.line, err)
	}
	return Rec{
		PC: pc, Addr: addr, Op: op,
		Dst: regs[0], Src1: regs[1], Src2: regs[2],
		Taken: taken == 1,
	}, nil
}

// ReadText parses the format produced by WriteText in one call.
func ReadText(r io.Reader) ([]Rec, error) {
	tr := NewTextReader(r)
	out := Collect(tr, 0)
	if err := tr.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseOp(s string) (Op, error) {
	for i, n := range opNames {
		if n == s {
			return Op(i), nil
		}
	}
	return 0, fmt.Errorf("unknown op %q", s)
}
