//go:build unix

package trace

import (
	"compress/gzip"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// TestGunzipCloseReleasesStalledRead closes a File whose gunzip stage
// is blocked reading a FIFO that holds no more data but is still open
// for writing: Close must return, and the stage must be gone.
func TestGunzipCloseReleasesStalledRead(t *testing.T) {
	fifo := filepath.Join(t.TempDir(), "t.din.gz")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}
	text := bigDinText()
	base := runtime.NumGoroutine()
	// The writer sends a block and a half of a flushed but unfinished
	// gzip stream, then holds the FIFO open until released.
	wrote := make(chan error, 1)
	release := make(chan struct{})
	go func() {
		w, err := os.OpenFile(fifo, os.O_WRONLY, 0)
		if err != nil {
			wrote <- err
			return
		}
		defer w.Close()
		zw := gzip.NewWriter(w)
		if _, err = zw.Write(text[:gunzipBlockSize*3/2]); err == nil {
			err = zw.Flush()
		}
		wrote <- err
		<-release
	}()
	defer close(release)

	f, err := OpenFile(fifo)
	if err != nil {
		t.Fatal(err)
	}
	// The first block fills and reaches the parser; the second cannot
	// fill, so once the written bytes are consumed the stage waits on
	// the FIFO.
	if k, _ := f.ReadChunk(make([]Rec, 10_000)); k != 10_000 {
		t.Fatalf("read %d records before the stall (err %v)", k, f.Err())
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- f.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on a stalled read")
	}
	release <- struct{}{}
	waitGoroutines(t, base)
}
