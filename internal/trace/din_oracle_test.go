package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// dinOracle is the strings-based din reader DinReader's in-place parser
// replaced, kept verbatim as the reference FuzzDin compares against:
// every line becomes a string, strings.Fields splits it and
// strconv.ParseUint reads the address.
type dinOracle struct {
	sc   *bufio.Scanner
	line int
	err  error
	eof  bool
}

func newDinOracle(r io.Reader) *dinOracle {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return &dinOracle{sc: sc}
}

func (dr *dinOracle) Next() (Rec, bool) {
	if dr.err != nil || dr.eof {
		return Rec{}, false
	}
	for dr.sc.Scan() {
		dr.line++
		line := strings.TrimSpace(dr.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			dr.err = fmt.Errorf("trace: din line %d: want `label address`, got %d field(s)", dr.line, len(f))
			return Rec{}, false
		}
		raw := strings.TrimPrefix(strings.TrimPrefix(f[1], "0x"), "0X")
		addr, err := strconv.ParseUint(raw, 16, 64)
		if err != nil {
			dr.err = fmt.Errorf("trace: din line %d: address %q: not a hex number", dr.line, f[1])
			return Rec{}, false
		}
		switch f[0] {
		case dinRead:
			return Rec{Op: OpLoad, Addr: addr}, true
		case dinWrite:
			return Rec{Op: OpStore, Addr: addr}, true
		case dinFetch:
			return Rec{Op: OpIntALU, PC: addr}, true
		default:
			dr.err = fmt.Errorf("trace: din line %d: unknown label %q (want 0=read, 1=write, 2=ifetch)", dr.line, f[0])
			return Rec{}, false
		}
	}
	if err := dr.sc.Err(); err != nil {
		dr.err = fmt.Errorf("trace: din line %d: %w", dr.line, err)
	}
	dr.eof = true
	return Rec{}, false
}
