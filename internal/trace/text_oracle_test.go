package trace

import (
	"fmt"
	"io"
	"strings"
)

// textOracle is the record-at-a-time text reader that TextReader's
// chunked line scan replaced, kept verbatim as the reference FuzzText
// compares against.  It shares TextReader's state and its line parser;
// only the scan loop is the old one.
type textOracle struct {
	TextReader
}

func newTextOracle(r io.Reader) *textOracle {
	return &textOracle{*NewTextReader(r)}
}

func (tr *textOracle) Next() (Rec, bool) {
	if tr.err != nil || tr.eof {
		return Rec{}, false
	}
	for tr.sc.Scan() {
		tr.line++
		line := strings.TrimSpace(tr.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rec, err := tr.parseLine(line)
		if err != nil {
			tr.err = err
			return Rec{}, false
		}
		return rec, true
	}
	if err := tr.sc.Err(); err != nil {
		tr.err = fmt.Errorf("trace: line %d: %w", tr.line, err)
	}
	tr.eof = true
	return Rec{}, false
}
