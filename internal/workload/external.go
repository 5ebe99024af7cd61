package workload

import (
	"fmt"
	"path/filepath"

	"repro/internal/trace"
)

// ExternalTrace identifies a user-supplied trace file standing in for a
// synthetic benchmark: the local path the replay opens plus the content
// identity (SHA-256 of the raw file bytes, and the byte count) that the
// trace store and the result cache key the file by.  The path is
// deliberately excluded from the JSON encoding — and therefore from
// every content-derived key — so the same trace bytes hash identically
// wherever the file lives.
type ExternalTrace struct {
	// Path is the local din trace file (optionally gzip-compressed; the
	// reader sniffs which).
	Path string `json:"-"`
	// SHA256 is the hex SHA-256 of the file's raw bytes.
	SHA256 string `json:"sha256"`
	// Bytes is the file size in bytes.
	Bytes int64 `json:"bytes"`
}

// ExternalProfile wraps a trace file as a Profile the experiment
// drivers can iterate exactly like a synthetic benchmark.  The file's
// digest is taken here, through the process-wide digest memo (so a
// file the result-cache key already hashed is not read again), and the
// profile's content key is fixed at construction; the trace itself is
// decoded later, by the trace store.  The profile's Name is the file's
// base name for display.
func ExternalProfile(path string) (Profile, error) {
	sum, size, err := trace.Digests.HashFile(path)
	if err != nil {
		return Profile{}, fmt.Errorf("workload: external trace: %w", err)
	}
	return Profile{
		Name:     filepath.Base(path),
		External: &ExternalTrace{Path: path, SHA256: sum, Bytes: size},
	}, nil
}
