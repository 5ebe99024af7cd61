package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"

	"repro/internal/cache"
	"repro/internal/gf2"
	"repro/internal/index"
	"repro/internal/trace"
	"repro/internal/workload"
)

// gatesMain is the hardware-design view of I-Poly indexing: it
// enumerates the irreducible modulus polynomials for a given cache
// geometry, audits the XOR-gate fan-in of each (the paper keeps every
// gate at fan-in <= 5, §3.4), recommends the minimum-fan-in choice, and
// prints the full gate network for the selected polynomial.
func gatesMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro gates", flag.ContinueOnError)
	fs.SetOutput(stderr)
	indexBits := fs.Int("indexbits", 7, "cache index bits (degree of P)")
	addrBits := fs.Int("addrbits", 19, "address bits feeding the hash")
	blockBits := fs.Int("blockbits", 5, "block offset bits (excluded from the hash)")
	show := fs.Int("show", 1, "print gate networks for the N best polynomials")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}

	// The enumeration walks every polynomial of degree indexbits, so its
	// run time doubles with each index bit; 16 covers the paper's 7-bit
	// L1 and 14-bit L2 indices.  A block address holds at most 64 bits.
	in := *addrBits - *blockBits
	switch {
	case *indexBits < 1 || *indexBits > 16:
		fmt.Fprintf(stderr, "gates: -indexbits must be in [1, 16], got %d\n", *indexBits)
		return 2
	case *blockBits < 0:
		fmt.Fprintf(stderr, "gates: -blockbits must be >= 0, got %d\n", *blockBits)
		return 2
	case in > 64:
		fmt.Fprintf(stderr, "gates: %d address bits leave %d hash inputs; at most 64 fit a block address\n",
			*addrBits, in)
		return 2
	case in <= *indexBits:
		fmt.Fprintf(stderr, "gates: %d address bits leave %d hash inputs; need more than %d\n",
			*addrBits, in, *indexBits)
		return 2
	}

	fmt.Fprintf(stdout, "I-Poly index hardware audit: %d index bits, %d hash inputs (address bits %d..%d)\n\n",
		*indexBits, in, *blockBits, *addrBits-1)

	polys, fans := gf2.FanInTable(*indexBits, in)
	fmt.Fprintf(stdout, "%-28s %10s %12s %10s\n", "polynomial", "max fan-in", "gate inputs", "primitive")
	for i, p := range polys {
		fmt.Fprintf(stdout, "%-28s %10d %12d %10v\n",
			p, fans[i], gf2.TotalGateInputs(p, in), gf2.Primitive(p))
	}

	best, fan := gf2.MinFanInIrreducible(*indexBits, in)
	fmt.Fprintf(stdout, "\nRecommended modulus: %v (max fan-in %d", best, fan)
	if fan <= 5 {
		fmt.Fprintf(stdout, " — within the paper's 5-input budget)\n")
	} else {
		fmt.Fprintf(stdout, " — exceeds the paper's 5-input budget; consider fewer address bits)\n")
	}

	shown := 0
	for i, p := range polys {
		if fans[i] != fan || shown >= *show {
			continue
		}
		fmt.Fprintf(stdout, "\nGate network for P(x) = %v:\n%s", p, gf2.NewModMatrix(p, in).GateDescription())
		shown++
	}
	return 0
}

// stridescanMain is an analysis tool for a single stride: it walks the
// Figure 1 vector kernel at one stride through all four indexing
// schemes and prints per-scheme miss ratios and the set-occupancy
// footprint, so a pathological stride can be dissected in detail.
func stridescanMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro stridescan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	stride := fs.Uint64("stride", 1024, "element stride (8-byte elements)")
	elems := fs.Int("elems", 64, "vector length in elements")
	rounds := fs.Int("rounds", 17, "walk rounds (first is warm-up)")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	// The first round is the warm-up, so one round measures nothing; the
	// whole walk is collected in memory, so it is capped at 2^22 records.
	switch {
	case *stride < 1:
		fmt.Fprintf(stderr, "stridescan: -stride must be at least 1, got %d\n", *stride)
		return 2
	case *elems < 1:
		fmt.Fprintf(stderr, "stridescan: -elems must be at least 1, got %d\n", *elems)
		return 2
	case *rounds < 2:
		fmt.Fprintf(stderr, "stridescan: -rounds must be at least 2 (the first is the warm-up), got %d\n", *rounds)
		return 2
	case *elems > (1<<22) / *rounds:
		fmt.Fprintf(stderr, "stridescan: -elems x -rounds must be at most 2^22, got %d x %d\n", *elems, *rounds)
		return 2
	}

	fmt.Fprintf(stdout, "stride %d elements (%d bytes), %d-element vector, %d rounds\n\n",
		*stride, *stride*8, *elems, *rounds)
	fmt.Fprintf(stdout, "%-10s %10s %14s\n", "scheme", "miss%", "distinct sets")

	recs := trace.Collect(workload.NewStrideStream(0, *stride*8, *elems, *rounds), 0)
	for _, scheme := range index.AllSchemes() {
		place := index.MustNew(scheme, 7, 2, 17)
		c := cache.New(cache.Config{
			Size: 8 << 10, BlockSize: 32, Ways: 2,
			Placement: place, WriteAllocate: false,
		})
		// The first round warms the cache and is not counted.
		for _, r := range recs[:*elems] {
			c.Access(r.Addr, false)
		}
		c.ResetStats()
		sets := make(map[uint64]struct{})
		for _, r := range recs[*elems:] {
			sets[place.SetIndex(r.Addr>>5, 0)] = struct{}{}
			c.Access(r.Addr, false)
		}
		fmt.Fprintf(stdout, "%-10s %9.2f%% %14d\n",
			scheme, 100*c.Stats().MissRatio(), len(sets))
	}
	return 0
}

// tracegenMain writes a synthetic benchmark trace to a file in the
// Dinero din format, so traces can be archived, diffed, or replayed by
// `repro tracesim`, the replay experiment and external tools.
func tracegenMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "tomcatv", "benchmark profile name (see workload.Suite)")
	n := fs.Uint64("n", 100_000, "instructions to emit")
	seed := fs.Uint64("seed", 1997, "generator seed")
	out := fs.String("o", "", "output file (default <bench>.din)")
	memOnly := fs.Bool("mem", false, "emit only loads and stores")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}

	prof, ok := workload.ByName(*bench)
	if !ok {
		fmt.Fprintf(stderr, "tracegen: unknown benchmark %q; known:\n", *bench)
		for _, p := range workload.Suite() {
			fmt.Fprintf(stderr, "  %s\n", p.Name)
		}
		return 2
	}
	path := *out
	if path == "" {
		path = prof.Name + ".din"
	}

	var s trace.Source = &trace.Limit{S: workload.Source(prof, *seed), N: *n}
	if *memOnly {
		s = &trace.Limit{S: &trace.MemOnly{S: workload.Source(prof, *seed)}, N: *n}
	}

	// Write to a temp file in the destination directory and rename over
	// the target only after a clean flush and close: an interrupted or
	// failed run leaves any previous trace intact instead of a silently
	// truncated file that a later replay would misread as a short trace.
	dir, base := filepath.Dir(path), filepath.Base(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		fmt.Fprintf(stderr, "tracegen: %v\n", err)
		return 1
	}
	fail := func(err error) int {
		tmp.Close()
		os.Remove(tmp.Name())
		fmt.Fprintf(stderr, "tracegen: %v\n", err)
		return 1
	}

	w := trace.NewDinWriter(tmp)
	// Chunked generate-encode loop: the generator fills buf in place and
	// the writer encodes the whole batch, so memory stays bounded at one
	// chunk regardless of -n.
	count := 0
	buf := make([]trace.Rec, 4096)
	for {
		if ctx.Err() != nil {
			return fail(ctx.Err())
		}
		k, eof := s.ReadChunk(buf)
		if err := w.WriteChunk(buf[:k]); err != nil {
			return fail(err)
		}
		count += k
		if eof {
			break
		}
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	// Close errors are real write errors on buffered filesystems; a
	// dropped one here could publish a corrupt trace.
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		fmt.Fprintf(stderr, "tracegen: %v\n", err)
		return 1
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		fmt.Fprintf(stderr, "tracegen: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %d records of %s to %s (din)\n", count, prof.Name, path)
	return 0
}

// tracesimMain replays a din trace file (gzip-compressed or not — the
// container is sniffed) through a cache configuration and reports
// hit/miss statistics with a 3C miss breakdown — the trace-driven half
// of the paper's methodology.
func tracesimMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro tracesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	path := fs.String("trace", "", "din trace file, optionally gzipped (required)")
	size := fs.Int("size", 8<<10, "cache size in bytes")
	block := fs.Int("block", 32, "block size in bytes")
	ways := fs.Int("ways", 2, "associativity")
	scheme := fs.String("scheme", "a2-Hp-Sk", "index scheme: a2, a2-Hx, a2-Hx-Sk, a2-Hp, a2-Hp-Sk")
	addrBits := fs.Int("addrbits", 19, "address bits feeding hash schemes")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}

	if *path == "" {
		fs.Usage()
		return 2
	}
	// Reject impossible geometries as a usage error; the bare division
	// below used to panic on -ways 0 or -block 0.
	if err := cache.CheckGeometry(*size, *block, *ways); err != nil {
		fmt.Fprintf(stderr, "tracesim: %v\n", err)
		fs.Usage()
		return 2
	}

	setBits := cache.Config{Size: *size, BlockSize: *block, Ways: *ways}.SetBits()
	blockBits := bits.TrailingZeros(uint(*block))
	place, err := index.New(index.Scheme(*scheme), setBits, *ways, *addrBits-blockBits)
	if err != nil {
		fmt.Fprintf(stderr, "tracesim: %v\n", err)
		return 2
	}
	c := cache.New(cache.Config{
		Size: *size, BlockSize: *block, Ways: *ways,
		Placement: place, WriteAllocate: false,
	})
	cl := cache.NewClassifier(*size / *block)

	f, err := trace.OpenFile(*path)
	if err != nil {
		fmt.Fprintf(stderr, "tracesim: %v\n", err)
		return 1
	}
	defer f.Close()

	// Chunked decode-replay loop: the reader decodes record batches and
	// the memory filter compacts them in place before the cache replay.
	src := &trace.MemOnly{S: f}
	buf := make([]trace.Rec, 4096)
	n := 0
	for {
		if ctx.Err() != nil {
			fmt.Fprintf(stderr, "tracesim: %v\n", ctx.Err())
			return 1
		}
		k, eof := src.ReadChunk(buf)
		for i := 0; i < k; i++ {
			res := c.Access(buf[i].Addr, buf[i].Op == trace.OpStore)
			cl.Observe(c.Block(buf[i].Addr), !res.Hit)
		}
		n += k
		if eof {
			break
		}
	}
	if err := f.Err(); err != nil {
		fmt.Fprintf(stderr, "tracesim: %v\n", err)
		return 1
	}

	s := c.Stats()
	brk := cl.Breakdown()
	fmt.Fprintf(stdout, "trace: %s  (%s, %d memory references)\n", *path, f.Info, n)
	fmt.Fprintf(stdout, "cache: %dB, %d-way, %dB lines, scheme %s (%d sets)\n",
		*size, *ways, *block, place.Name(), place.Sets())
	fmt.Fprintf(stdout, "\naccesses  %10d\nhits      %10d\nmisses    %10d  (%.2f%%)\n",
		s.Accesses, s.Hits, s.Misses, 100*s.MissRatio())
	fmt.Fprintf(stdout, "load miss ratio: %.2f%%\n", 100*s.ReadMissRatio())
	fmt.Fprintf(stdout, "\n3C breakdown of %d classified misses:\n", brk.Total())
	fmt.Fprintf(stdout, "  compulsory %10d\n  capacity   %10d\n  conflict   %10d\n",
		brk.Compulsory, brk.Capacity, brk.Conflict)
	return 0
}
