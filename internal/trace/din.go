package trace

import (
	"bufio"
	"fmt"
	"io"
	"unicode"
	"unicode/utf8"
)

// The Dinero "din" trace format: one reference per line, a decimal label
// followed by a hexadecimal address, with anything after the second
// field ignored (dinero's own readers skip the remainder of the line).
// Labels 0 and 1 are data reads and writes, label 2 is an instruction
// fetch.  It is the lingua franca the paper-era cache simulators
// exchanged Spec address traces in, so it is the first external format
// the replay path accepts.
const (
	dinRead  = "0"
	dinWrite = "1"
	dinFetch = "2"
)

// DinReader decodes din-format text and implements Source.  Data reads
// and writes become OpLoad/OpStore records carrying the address;
// instruction fetches become non-memory records carrying the fetch
// address as PC (so MemOnly filters them out, exactly the view a
// data-cache simulator wants).  Labels outside 0-2 and malformed
// addresses surface as positioned errors via Err.
type DinReader struct {
	sc   *bufio.Scanner
	line int
	err  error
	eof  bool
}

// NewDinReader returns a din-format trace reader.
func NewDinReader(r io.Reader) *DinReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return &DinReader{sc: sc}
}

// Err returns the first error encountered (parse error, oversized line,
// or a failure of the underlying reader such as a truncated gzip
// stream).
func (dr *DinReader) Err() error { return dr.err }

// ReadChunk implements Source.
//
// Each line is parsed in place in the scanner's buffer.  Its meaning is
// that of the strings-based reading it replaces: a line that is blank
// or starts with '#' once surrounding white space is trimmed is
// skipped; fields are split on unicode.IsSpace, as strings.Fields
// splits them; the second field, after dropping a leading "0x" and
// then a leading "0X", must be what strconv.ParseUint(s, 16, 64)
// accepts; and the first must be exactly 0, 1 or 2.  Error strings are
// formatted only on the error path.
func (dr *DinReader) ReadChunk(buf []Rec) (int, bool) {
	if dr.err != nil || dr.eof {
		return 0, true
	}
	n := 0
	for n < len(buf) && dr.sc.Scan() {
		dr.line++
		b := dr.sc.Bytes()
		i := skip(b, 0, true)
		if i == len(b) || b[i] == '#' {
			continue
		}
		label := b[i:skip(b, i, false)]
		j := skip(b, i+len(label), true)
		if j == len(b) {
			// A non-blank line with no second field has exactly one.
			dr.err = fmt.Errorf("trace: din line %d: want `label address`, got 1 field(s)", dr.line)
			return n, true
		}
		field := b[j:skip(b, j, false)]
		addr, ok := dinAddr(field)
		if !ok {
			dr.err = fmt.Errorf("trace: din line %d: address %q: not a hex number", dr.line, string(field))
			return n, true
		}
		switch string(label) {
		case dinRead:
			buf[n] = Rec{Op: OpLoad, Addr: addr}
		case dinWrite:
			buf[n] = Rec{Op: OpStore, Addr: addr}
		case dinFetch:
			buf[n] = Rec{Op: OpIntALU, PC: addr}
		default:
			dr.err = fmt.Errorf("trace: din line %d: unknown label %q (want 0=read, 1=write, 2=ifetch)", dr.line, string(label))
			return n, true
		}
		n++
	}
	if n == len(buf) {
		return n, false
	}
	if err := dr.sc.Err(); err != nil {
		dr.err = fmt.Errorf("trace: din line %d: %w", dr.line, err)
	}
	dr.eof = true
	return n, true
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// skip returns the index of the first rune at or after i in b that is
// white space if space is false, or is not if space is true; len(b) if
// there is none.  skip(b, i, true) passes white space, skip(b, i,
// false) passes a field.
func skip(b []byte, i int, space bool) int {
	for i < len(b) {
		if c := b[i]; c < utf8.RuneSelf {
			if asciiSpace[c] != space {
				return i
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if unicode.IsSpace(r) != space {
			return i
		}
		i += size
	}
	return i
}

// hexVal maps a byte to its value as a hex digit, or to 0xff.
var hexVal = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for i := byte(0); i < 10; i++ {
		t['0'+i] = i
	}
	for i := byte(0); i < 6; i++ {
		t['a'+i], t['A'+i] = 10+i, 10+i
	}
	return t
}()

// dinAddr parses a din address field: a leading "0x" and then a
// leading "0X" are dropped, and the rest must be one or more hex
// digits whose value fits in 64 bits (leading zeros are free).
func dinAddr(s []byte) (uint64, bool) {
	if len(s) >= 2 && s[0] == '0' && s[1] == 'x' {
		s = s[2:]
	}
	if len(s) >= 2 && s[0] == '0' && s[1] == 'X' {
		s = s[2:]
	}
	if len(s) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range s {
		d := hexVal[c]
		if d > 0xf || v>>60 != 0 {
			return 0, false
		}
		v = v<<4 | uint64(d)
	}
	return v, true
}

// DinWriter encodes records in the din text format.  Call Flush when
// done.
type DinWriter struct {
	w *bufio.Writer
}

// NewDinWriter returns a din-format trace writer.
func NewDinWriter(w io.Writer) *DinWriter { return &DinWriter{w: bufio.NewWriter(w)} }

// WriteChunk encodes a batch of records: loads and stores as labels
// 0/1 with the data address, everything else as a label-2 instruction
// fetch of the record's PC — the inverse of DinReader's mapping, so a
// mem-only trace round-trips exactly.
func (dw *DinWriter) WriteChunk(recs []Rec) error {
	for _, r := range recs {
		var err error
		switch r.Op {
		case OpLoad:
			_, err = fmt.Fprintf(dw.w, "%s %x\n", dinRead, r.Addr)
		case OpStore:
			_, err = fmt.Fprintf(dw.w, "%s %x\n", dinWrite, r.Addr)
		default:
			_, err = fmt.Fprintf(dw.w, "%s %x\n", dinFetch, r.PC)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Flush flushes buffered output.
func (dw *DinWriter) Flush() error { return dw.w.Flush() }

// WriteDin writes records in the din text format in one call.
func WriteDin(w io.Writer, recs []Rec) error {
	dw := NewDinWriter(w)
	if err := dw.WriteChunk(recs); err != nil {
		return err
	}
	return dw.Flush()
}
