package trace

import (
	"bufio"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strings"
)

// Format names a trace encoding the sniffer can identify.
type Format string

// The encodings OpenFile recognizes.
const (
	// FormatBinary is the repository's native binary format (magic
	// "IPOLYTR1", fixed 20-byte records).
	FormatBinary Format = "binary"
	// FormatDin is the Dinero "din" text format (`label hexaddr` lines).
	FormatDin Format = "din"
	// FormatText is the repository's 7-field text format (WriteText).
	FormatText Format = "text"
)

// Sniffed describes what OpenFile detected: the record encoding and
// whether it was gzip-compressed.
type Sniffed struct {
	Format Format
	Gzip   bool
}

// String renders the detection for logs and report notes.
func (s Sniffed) String() string {
	if s.Gzip {
		return string(s.Format) + "+gzip"
	}
	return string(s.Format)
}

// ErrSource is a Source that can fail mid-stream: Err returns the first
// decode or I/O error encountered (nil after a clean EOF).  All the
// file-format readers implement it.
type ErrSource interface {
	Source
	Err() error
}

// sniffText decides between the din and native text formats from the
// first non-blank, non-comment line of a peeked prefix: din lines lead
// with a 0/1/2 label, text lines carry 7 fields with an op mnemonic
// second.  An empty prefix (no records at all) defaults to din, whose
// reader yields a clean empty trace.
func sniffText(prefix []byte) (Format, error) {
	for _, line := range strings.Split(string(prefix), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch {
		case len(f) >= 2 && (f[0] == dinRead || f[0] == dinWrite || f[0] == dinFetch):
			return FormatDin, nil
		case len(f) == 7:
			if _, err := parseOp(f[1]); err == nil {
				return FormatText, nil
			}
		}
		return "", fmt.Errorf("trace: unrecognized trace format (line %q is neither din `label hexaddr` nor the 7-field text format)", line)
	}
	return FormatDin, nil
}

// sniffPeek is how far the sniffer looks into a text stream for its
// first record line.
const sniffPeek = 4096

// File is an opened on-disk trace: the sniffed streaming source plus
// the file handle and, for gzip input, the decompression stage that
// Close stops.
type File struct {
	ErrSource
	// Info is the sniffed container/encoding.
	Info Sniffed
	f    *os.File
	gz   *gunzip // nil unless Info.Gzip
}

// OpenFile opens a trace file and identifies its format by content —
// gzip by its two magic bytes (decompressed transparently, once), the
// native binary format by its 8-byte magic, din and native text by the
// shape of the first record line — and returns a streaming reader for
// it.  Sniffing decompresses at most the first few KiB, on the
// caller's goroutine; for gzip input the first read past them starts a
// goroutine that decompresses ahead of the parser.  The caller must
// Close the file and should check Err after draining the source.
func OpenFile(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	tf, err := openSniff(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tf, nil
}

// openSniff sniffs f and wraps it in the matching streaming reader.
func openSniff(f *os.File) (*File, error) {
	tf := &File{f: f}
	br := bufio.NewReader(f)
	head, err := br.Peek(2)
	if err != nil && err != io.EOF {
		return nil, err
	}
	if len(head) == 2 && head[0] == 0x1f && head[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: gzip header: %w", err)
		}
		tf.Info.Gzip = true
		tf.gz = &gunzip{gz: gz}
		br = bufio.NewReader(tf.gz)
	}
	src, format, err := sniff(br)
	if err != nil {
		return nil, err
	}
	tf.ErrSource, tf.Info.Format = src, format
	if tf.gz != nil {
		tf.gz.async = true
	}
	return tf, nil
}

// sniff identifies the record encoding at the head of br and returns a
// streaming reader for it.
func sniff(br *bufio.Reader) (ErrSource, Format, error) {
	magicPeek, _ := br.Peek(len(magic))
	if len(magicPeek) == len(magic) && [8]byte(magicPeek) == magic {
		return NewReader(br), FormatBinary, nil
	}
	prefix, err := br.Peek(sniffPeek)
	if err != nil && err != io.EOF && len(prefix) == 0 {
		return nil, "", err
	}
	f, err := sniffText(prefix)
	if err != nil {
		return nil, "", err
	}
	if f == FormatDin {
		return NewDinReader(br), f, nil
	}
	return NewTextReader(br), f, nil
}

// Close stops the decompression goroutine, if one is running, waits
// for it to exit and releases the file handle.  The handle is closed
// first, so a goroutine stalled reading it is released.
func (tf *File) Close() error {
	err := tf.f.Close()
	if tf.gz != nil {
		tf.gz.close()
	}
	return err
}

// HashFile returns the hex SHA-256 of the file's raw contents (the
// compressed bytes for a gzip'd trace) and its size in bytes — the
// content identity external traces are keyed by in the trace store and
// the result cache.
func HashFile(path string) (sum string, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}
