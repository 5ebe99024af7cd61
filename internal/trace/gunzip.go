package trace

import (
	"compress/gzip"
	"errors"
	"io"
	"os"
)

// errTruncatedGzip replaces the io.ErrUnexpectedEOF a truncated gzip
// stream produces.  Without it, a gzip stream cut exactly on a record
// boundary would be indistinguishable from a clean EOF inside
// io.ReadFull-based decoders (which fold a trailing partial read into
// ErrUnexpectedEOF themselves), and the truncation would pass silently.
var errTruncatedGzip = errors.New("trace: truncated gzip stream")

// The gunzip stage decompresses one ring of gunzipBlocks blocks of
// gunzipBlockSize bytes ahead of the parser.  A 256 KiB block holds
// tens of thousands of din lines, so one channel handoff per block
// costs well under a nanosecond per record, even on one core where
// every handoff is a goroutine switch.  Four blocks let gunzip run two
// blocks ahead while the parser holds one and the next is being
// filled, which absorbs the jitter between the two stages; a deeper
// ring gains nothing once either stage is the bottleneck.
const (
	gunzipBlocks    = 4
	gunzipBlockSize = 256 << 10
)

// gunzipBlock is one decompressed block and the error, if any, that
// ended the stream after its bytes.
type gunzipBlock struct {
	buf []byte
	err error
}

// gunzip decompresses a gzip stream.  While the sniffer peeks at the
// stream's head it reads inline, on the caller's goroutine; once async
// is set, the first Read starts a goroutine that decompresses into a
// fixed ring of blocks ahead of the reader, so gunzip overlaps the
// parse on a second core.  The goroutine belongs to the File that owns
// the stage, whose Close stops it.
type gunzip struct {
	gz    *gzip.Reader
	async bool // set once sniffing is done

	full chan gunzipBlock // decompressed blocks, in stream order
	free chan []byte      // drained blocks, returned for refilling
	stop chan struct{}    // closed by close
	done chan struct{}    // closed when the goroutine has exited

	blk []byte // the block being read
	cur []byte // its unread bytes
	err error  // the error after cur, once the stream has ended
}

// read decompresses into p, marking a truncated stream.
func (g *gunzip) read(p []byte) (int, error) {
	n, err := g.gz.Read(p)
	if err == io.ErrUnexpectedEOF {
		err = errTruncatedGzip
	}
	return n, err
}

// Read implements io.Reader.  Bytes decompressed before an error are
// returned before it.
func (g *gunzip) Read(p []byte) (int, error) {
	if !g.async {
		return g.read(p)
	}
	if g.done == nil && g.err == nil {
		g.start()
	}
	for len(g.cur) == 0 {
		if g.err != nil {
			return 0, g.err
		}
		if g.blk != nil {
			g.free <- g.blk // never blocks: free has room for every block
		}
		b := <-g.full
		g.blk, g.cur, g.err = b.buf[:cap(b.buf)], b.buf, b.err
	}
	n := copy(p, g.cur)
	g.cur = g.cur[n:]
	return n, nil
}

// start allocates the ring and starts the goroutine that fills it.
func (g *gunzip) start() {
	g.full = make(chan gunzipBlock, gunzipBlocks)
	g.free = make(chan []byte, gunzipBlocks)
	g.stop = make(chan struct{})
	g.done = make(chan struct{})
	for i := 0; i < gunzipBlocks; i++ {
		g.free <- make([]byte, gunzipBlockSize)
	}
	go g.run()
}

// run fills free blocks in stream order until the stream ends or close
// stops it.
func (g *gunzip) run() {
	defer close(g.done)
	for {
		var buf []byte
		select {
		case buf = <-g.free:
		case <-g.stop:
			return
		}
		n := 0
		var err error
		for n < len(buf) && err == nil {
			var k int
			k, err = g.read(buf[n:])
			n += k
		}
		select {
		case g.full <- gunzipBlock{buf[:n], err}:
		case <-g.stop:
			return
		}
		if err != nil {
			return
		}
	}
}

// close stops the goroutine, if one was started, and returns once it
// has exited; later Reads fail.  A goroutine blocked reading the
// underlying file is released by closing that file first.
func (g *gunzip) close() {
	if g.stop != nil {
		close(g.stop)
		<-g.done
		g.stop = nil
	}
	g.blk, g.cur, g.err = nil, nil, os.ErrClosed
}
