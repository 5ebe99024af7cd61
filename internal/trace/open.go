package trace

import (
	"bufio"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"strings"
)

// Sniffed describes what OpenFile detected: whether the din stream was
// gzip-compressed.
type Sniffed struct {
	Gzip bool
}

// String renders the detection for logs and report notes.
func (s Sniffed) String() string {
	if s.Gzip {
		return "din+gzip"
	}
	return "din"
}

// ErrSource is a Source that can fail mid-stream: Err returns the first
// decode or I/O error encountered (nil after a clean EOF).  DinReader
// and File implement it.
type ErrSource interface {
	Source
	Err() error
}

// ErrUnrecognized is wrapped by the error OpenFile returns for a file
// that opens but does not look like din, so a caller can tell an input
// it cannot use from a run that failed.
var ErrUnrecognized = errors.New("trace: unrecognized trace format")

// sniffDin checks that the first non-blank, non-comment line of a
// peeked prefix looks like din: a 0/1/2 label and at least one more
// field.  An empty prefix (no records at all) passes, and the din
// reader yields a clean empty trace.  The error quotes at most
// sniffQuote bytes of the offending line: a binary file's first "line"
// can run to kilobytes.
func sniffDin(prefix []byte) error {
	for _, line := range strings.Split(string(prefix), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) >= 2 && (f[0] == dinRead || f[0] == dinWrite || f[0] == dinFetch) {
			return nil
		}
		return fmt.Errorf("%w (line %q is not din `label hexaddr`)", ErrUnrecognized, line[:min(len(line), sniffQuote)])
	}
	return nil
}

// sniffPeek is how far the sniffer looks into a din stream for its
// first record line.
const sniffPeek = 4096

// sniffQuote is how much of a non-din line the sniffer's error quotes.
const sniffQuote = 64

// File is an opened on-disk trace: the din streaming source plus the
// file handle and, for gzip input, the decompression stage that Close
// stops.
type File struct {
	ErrSource
	// Info is the sniffed container.
	Info Sniffed
	f    *os.File
	gz   *gunzip  // nil unless Info.Gzip
	raw  *rawHash // nil unless opened by OpenFileDigest
}

// rawHash reads a file and hashes every byte it reads, below any
// decompression.
type rawHash struct {
	f    *os.File
	sha  hash.Hash
	size int64
}

// Read implements io.Reader.
func (r *rawHash) Read(p []byte) (int, error) {
	n, err := r.f.Read(p)
	r.sha.Write(p[:n])
	r.size += int64(n)
	return n, err
}

// OpenFile opens a din trace file and returns a streaming reader for
// it.  Gzip is recognized by its two magic bytes and decompressed
// transparently, once; the stream must then look like din in the shape
// of its first record line, or the file fails to open as an
// unrecognized format.  Sniffing decompresses at most the first few
// KiB, on the caller's goroutine; for gzip input the first read past
// them starts a goroutine that decompresses ahead of the parser.  The
// caller must Close the file and should check Err after draining the
// source.
func OpenFile(path string) (*File, error) {
	return open(path, false)
}

// OpenFileDigest is OpenFile for a caller that must know which bytes
// the records came from: every byte the reader takes from the file,
// below the gzip layer, also feeds a SHA-256 that Digest completes.
func OpenFileDigest(path string) (*File, error) {
	return open(path, true)
}

// open opens path, hashing what it reads when digest is set.
func open(path string, digest bool) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	tf := &File{f: f}
	var r io.Reader = f
	if digest {
		tf.raw = &rawHash{f: f, sha: sha256.New()}
		r = tf.raw
	}
	if err := tf.sniff(r); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tf, nil
}

// sniff sniffs the file's bytes, read from r, and wraps them in the din
// reader.
func (tf *File) sniff(r io.Reader) error {
	br := bufio.NewReader(r)
	head, err := br.Peek(2)
	if err != nil && err != io.EOF {
		return err
	}
	if len(head) == 2 && head[0] == 0x1f && head[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return gzipErr("gzip header", err)
		}
		tf.Info.Gzip = true
		tf.gz = &gunzip{gz: gz}
		br = bufio.NewReader(tf.gz)
	}
	prefix, err := br.Peek(sniffPeek)
	if err != nil && err != io.EOF && len(prefix) == 0 {
		if tf.gz != nil {
			return gzipErr("gzip", err)
		}
		return err
	}
	if err := sniffDin(prefix); err != nil {
		return err
	}
	tf.ErrSource = NewDinReader(br)
	if tf.gz != nil {
		tf.gz.async = true
	}
	return nil
}

// gzipErr reports a gzip or deflate failure met while sniffing.  Bytes
// that do not decompress are an input the package cannot use, so the
// error wraps ErrUnrecognized; a failure to read the file itself does
// not.
func gzipErr(stage string, err error) error {
	if errors.As(err, new(*fs.PathError)) {
		return fmt.Errorf("trace: %s: %w", stage, err)
	}
	return fmt.Errorf("%w: %s: %w", ErrUnrecognized, stage, err)
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

// Digest stops decoding, hashes the rest of the file and returns the
// hex SHA-256 and size of every byte read from it since it was opened:
// HashFile's result for the bytes the records were decoded from.  It is
// for a File from OpenFileDigest, whose source must not be read after
// it.
func (tf *File) Digest() (sum string, size int64, err error) {
	if tf.gz != nil {
		tf.gz.close() // the decompressor reads the file no more
	}
	rest, err := io.Copy(tf.raw.sha, tf.f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(tf.raw.sha.Sum(nil)), tf.raw.size + rest, nil
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
