// Package trace defines the canonical instruction-trace record consumed
// by the cache and CPU simulators, together with the Dinero din codec
// (the one trace-file format, optionally gzipped), stream utilities and
// the memoized content digest trace files are keyed by.  A trace is the
// moral equivalent of the Spec95 address/instruction traces the paper's
// authors drove their simulator with; ours are produced synthetically
// by package workload.
package trace

import "fmt"

// Op classifies an instruction for functional-unit scheduling (Table 1 of
// the paper) and memory behaviour.
type Op uint8

// Instruction classes.  The latency/repeat-rate mapping lives in the CPU
// model; here we only name the classes.
const (
	OpIntALU Op = iota // simple integer (1 cycle)
	OpIntMul           // complex integer multiply (9 cycles)
	OpIntDiv           // complex integer divide (67 cycles)
	OpFPALU            // simple FP (4 cycles)
	OpFPMul            // FP multiply (4 cycles)
	OpFPDiv            // FP divide (16 cycles)
	OpFPSqrt           // FP square root (35 cycles)
	OpLoad             // memory load
	OpStore            // memory store
	OpBranch           // conditional branch
	numOps
)

var opNames = [...]string{
	"ialu", "imul", "idiv", "fpalu", "fpmul", "fpdiv", "fpsqrt",
	"load", "store", "branch",
}

// String returns the mnemonic for the op class.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o names a defined op class.
func (o Op) Valid() bool { return o < numOps }

// NumOps returns the number of defined op classes.
func NumOps() int { return int(numOps) }

// IsMem reports whether the op accesses memory.
func (o Op) IsMem() bool { return o == OpLoad || o == OpStore }

// IsFP reports whether the op uses the floating-point register file.
func (o Op) IsFP() bool { return o >= OpFPALU && o <= OpFPSqrt }

// Rec is one dynamic instruction.  Registers are architectural numbers in
// [0, 32); the integer and FP files are separate namespaces.  Addr is the
// virtual byte address for loads and stores (0 otherwise).  Taken is the
// actual outcome for branches.
type Rec struct {
	PC    uint64
	Addr  uint64
	Op    Op
	Dst   uint8
	Src1  uint8
	Src2  uint8
	Taken bool
}

// String renders a record for debugging.
func (r Rec) String() string {
	switch {
	case r.Op.IsMem():
		return fmt.Sprintf("%#x %s r%d <- [%#x]", r.PC, r.Op, r.Dst, r.Addr)
	case r.Op == OpBranch:
		return fmt.Sprintf("%#x %s taken=%v", r.PC, r.Op, r.Taken)
	default:
		return fmt.Sprintf("%#x %s r%d <- r%d, r%d", r.PC, r.Op, r.Dst, r.Src1, r.Src2)
	}
}

// Source yields trace records in caller-supplied chunks — the batched
// producer interface mirroring the cache engine's batched replay
// consumers.  ReadChunk fills buf with up to len(buf) records and
// returns how many were written; eof reports that the source is
// exhausted (no record will ever follow the n returned).  A call may
// return n < len(buf) with eof false only when len(buf) == 0.  Sources
// are single-use and not safe for concurrent use.  Every trace producer
// and decoder in the repository implements it.
type Source interface {
	ReadChunk(buf []Rec) (n int, eof bool)
}

// SliceSource adapts a slice of records into a Source.
type SliceSource struct {
	recs []Rec
	pos  int
}

// NewSliceSource returns a Source over recs.  The slice is not copied.
func NewSliceSource(recs []Rec) *SliceSource { return &SliceSource{recs: recs} }

// ReadChunk implements Source.
func (s *SliceSource) ReadChunk(buf []Rec) (int, bool) {
	n := copy(buf, s.recs[s.pos:])
	s.pos += n
	return n, s.pos >= len(s.recs)
}

// Collect drains up to max records from a source into a slice.  A max
// of 0 means no limit (the source must be finite).
func Collect(s Source, max int) []Rec {
	var out []Rec
	buf := make([]Rec, 4096)
	for {
		want := len(buf)
		if max > 0 && max-len(out) < want {
			want = max - len(out)
		}
		if want == 0 {
			return out
		}
		n, eof := s.ReadChunk(buf[:want])
		out = append(out, buf[:n]...)
		if eof {
			return out
		}
	}
}

// Limit wraps a source, truncating it after N records.
type Limit struct {
	S Source
	N uint64
}

// ReadChunk implements Source.
func (l *Limit) ReadChunk(buf []Rec) (int, bool) {
	if l.N == 0 {
		return 0, true
	}
	if uint64(len(buf)) > l.N {
		buf = buf[:l.N]
	}
	n, eof := l.S.ReadChunk(buf)
	l.N -= uint64(n)
	return n, eof || l.N == 0
}

// MemOnly wraps a source, yielding only load/store records — the view a
// trace-driven cache simulator needs.  Filtering happens in place in the
// caller's buffer: each underlying chunk is compacted down to its memory
// records, so no intermediate buffer or per-record dispatch is paid.
type MemOnly struct {
	S Source
}

// ReadChunk implements Source.
func (m *MemOnly) ReadChunk(buf []Rec) (int, bool) {
	n := 0
	for n < len(buf) {
		k, eof := m.S.ReadChunk(buf[n:])
		w := n
		for i := n; i < n+k; i++ {
			if buf[i].Op.IsMem() {
				buf[w] = buf[i]
				w++
			}
		}
		n = w
		if eof {
			return n, true
		}
	}
	return n, false
}
