package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// settledClock makes every file look older than the margin, so a test
// need not wait the margin out before a memo trusts its entries.
func settledClock() time.Time { return time.Now().Add(time.Hour) }

// needMemo skips tests that count memo hits where there is no memo.
func needMemo(t *testing.T) {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("the digest memo needs a stat with inode and ctime")
	}
}

func openStore(t testing.TB, dir string) *store.Store {
	t.Helper()
	d, err := store.Open(dir, store.DefaultMaxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sameAsHashFile requires m's answer for path to be HashFile's.
func sameAsHashFile(t *testing.T, m *DigestMemo, path string) {
	t.Helper()
	got, gotSize, gotErr := m.HashFile(path)
	want, wantSize, wantErr := HashFile(path)
	if got != want || gotSize != wantSize || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: memo says %s (%d bytes, %v), HashFile %s (%d bytes, %v)",
			filepath.Base(path), got, gotSize, gotErr, want, wantSize, wantErr)
	}
}

// wantStats checks the memo's counters.
func wantStats(t *testing.T, m *DigestMemo, hashes, hits uint64) {
	t.Helper()
	if st := m.Stats(); st != (DigestStats{Hashes: hashes, Hits: hits}) {
		t.Errorf("stats %+v, want %d hashes and %d hits", st, hashes, hits)
	}
}

// rewrite overwrites path in place (same inode) with b and, when
// keepMtime is set, restores its previous mtime as `touch -r` would.
// It repeats until the ctime has moved, which on a coarse-stamping
// filesystem takes up to one timestamp tick; an edit hidden inside one
// tick is what the margin, not the identity, catches.
func rewrite(t *testing.T, path string, b []byte, keepMtime bool) {
	t.Helper()
	before, ok := statID(path)
	if !ok {
		t.Fatalf("stat %s failed", path)
	}
	deadline := time.Now().Add(3 * digestMargin)
	for {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if keepMtime {
			if err := os.Chtimes(path, time.Time{}, time.Unix(0, before.MtimeNS)); err != nil {
				t.Fatal(err)
			}
		}
		if after, _ := statID(path); after.CtimeNS != before.CtimeNS {
			if keepMtime && after.MtimeNS != before.MtimeNS {
				t.Fatalf("mtime not restored: %d, was %d", after.MtimeNS, before.MtimeNS)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the ctime of %s never moved", path)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDigestMemoTiers pins the memo's two tiers: a settled file is read
// once per process, then once per store, and a file younger than the
// margin is read on every lookup and never recorded.
func TestDigestMemoTiers(t *testing.T) {
	needMemo(t)
	dir := t.TempDir()
	p := writeTemp(t, "t.din", []byte("0 1000\n1 2000\n"))

	m := NewDigestMemo(openStore(t, dir), settledClock)
	sameAsHashFile(t, m, p)
	sameAsHashFile(t, m, p)
	wantStats(t, m, 1, 1)

	next := NewDigestMemo(openStore(t, dir), settledClock) // a second process
	sameAsHashFile(t, next, p)
	wantStats(t, next, 0, 1)

	young := t.TempDir()
	m = NewDigestMemo(openStore(t, young), time.Now)
	sameAsHashFile(t, m, p)
	sameAsHashFile(t, m, p)
	wantStats(t, m, 2, 0)
	if d := openStore(t, young); d.Len() != 0 {
		t.Errorf("a file younger than the margin left %d store entries", d.Len())
	}
}

// TestDigestMemoRewriteInOneTick rewrites a file with same-size bytes
// right after its digest was taken, on the real clock.  Where the
// filesystem stamps from a coarse clock, both writes can share every
// stamp, and only the margin makes the memo read the file again.
func TestDigestMemoRewriteInOneTick(t *testing.T) {
	m := NewDigestMemo(openStore(t, t.TempDir()), time.Now)
	p := writeTemp(t, "t.din", []byte("0 1000\n"))
	sameAsHashFile(t, m, p)
	if err := os.WriteFile(p, []byte("1 1000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sameAsHashFile(t, m, p)
}

// TestDigestMemoRestoredMtime edits a memoized file in place and
// restores its mtime, under a clock that makes it look settled: the
// ctime still moves, so the memo must read the file again.
func TestDigestMemoRestoredMtime(t *testing.T) {
	needMemo(t)
	dir := t.TempDir()
	m := NewDigestMemo(openStore(t, dir), settledClock)
	p := writeTemp(t, "t.din", []byte("0 1000\n"))
	sameAsHashFile(t, m, p)
	rewrite(t, p, []byte("1 1000\n"), true)
	sameAsHashFile(t, m, p)
	sameAsHashFile(t, NewDigestMemo(openStore(t, dir), settledClock), p)
	wantStats(t, m, 2, 0)
}

// TestDigestMemoRenameLinkCopy keys entries by inode, not path: a file
// renamed over a memoized one, an edit through a hard link and a copy
// with the original's mtime all read as their own bytes.
func TestDigestMemoRenameLinkCopy(t *testing.T) {
	needMemo(t)
	dir := t.TempDir()
	m := NewDigestMemo(openStore(t, filepath.Join(dir, "store")), settledClock)
	a := filepath.Join(dir, "a.din")
	b := filepath.Join(dir, "b.din")
	for p, body := range map[string]string{a: "0 1000\n", b: "1 1000\n"} {
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		sameAsHashFile(t, m, p)
	}

	t.Run("rename", func(t *testing.T) {
		if err := os.Rename(a, b); err != nil {
			t.Fatal(err)
		}
		sameAsHashFile(t, m, b)
	})
	t.Run("hard link", func(t *testing.T) {
		l := filepath.Join(dir, "l.din")
		if err := os.Link(b, l); err != nil {
			t.Fatal(err)
		}
		sameAsHashFile(t, m, l)
		sameAsHashFile(t, m, l)
		rewrite(t, l, []byte("2 1000\n"), true)
		sameAsHashFile(t, m, b)
	})
	t.Run("copy", func(t *testing.T) {
		c := filepath.Join(dir, "c.din")
		body, err := os.ReadFile(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(c, body, 0o644); err != nil {
			t.Fatal(err)
		}
		src, _ := statID(b)
		if err := os.Chtimes(c, time.Time{}, time.Unix(0, src.MtimeNS)); err != nil {
			t.Fatal(err)
		}
		sameAsHashFile(t, m, c)
		rewrite(t, c, []byte("0 2000\n"), true)
		sameAsHashFile(t, m, c)
		sameAsHashFile(t, m, b)
	})
}

// TestDigestMemoDeletedFile holds an entry for a file that is deleted:
// the lookup fails as HashFile does, and a new file of the same size
// and mtime at the same path (perhaps on the same inode) reads as its
// own bytes, from this process and the next.
func TestDigestMemoDeletedFile(t *testing.T) {
	needMemo(t)
	dir := t.TempDir()
	m := NewDigestMemo(openStore(t, filepath.Join(dir, "store")), settledClock)
	p := filepath.Join(dir, "t.din")
	if err := os.WriteFile(p, []byte("0 1000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sameAsHashFile(t, m, p)
	old, _ := statID(p)
	if err := os.Remove(p); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.HashFile(p); !os.IsNotExist(err) {
		t.Fatalf("deleted file: error %v, want not-exist", err)
	}
	deadline := time.Now().Add(3 * digestMargin)
	for {
		if err := os.WriteFile(p, []byte("1 1000\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, time.Time{}, time.Unix(0, old.MtimeNS)); err != nil {
			t.Fatal(err)
		}
		if now, _ := statID(p); now.CtimeNS != old.CtimeNS {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the new file's ctime never left the old one's")
		}
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	sameAsHashFile(t, m, p)
	sameAsHashFile(t, NewDigestMemo(openStore(t, filepath.Join(dir, "store")), settledClock), p)
}

// TestDigestMemoRewriteDuringHash rewrites the file in place, with as
// many bytes, while its digest is being taken: the answer is the bytes
// the hash read, and nothing is recorded, so the next lookup reads the
// file again.
func TestDigestMemoRewriteDuringHash(t *testing.T) {
	needMemo(t)
	dir := t.TempDir()
	d := openStore(t, filepath.Join(dir, "store"))
	m := NewDigestMemo(d, settledClock)
	p := filepath.Join(dir, "t.din")
	if err := os.WriteFile(p, []byte("0 1000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m.hash = func(path string) (string, int64, error) {
		rewrite(t, path, []byte("1 1000\n"), false)
		return HashFile(path)
	}
	sameAsHashFile(t, m, p)
	if d.Len() != 0 || len(m.mem) != 0 {
		t.Errorf("a hash the file changed under left %d store and %d memory entries", d.Len(), len(m.mem))
	}
	m.hash = HashFile
	sameAsHashFile(t, m, p)
	sameAsHashFile(t, m, p)
	wantStats(t, m, 2, 1)
}

// TestDigestMemoTwoStoresRace races two memos, each on its own store
// handle of one directory and sharing nothing in memory, on one file
// that is being rewritten.  Once the writes stop, every memo and a
// fresh one must answer with the file's bytes.  Run with -race.
func TestDigestMemoTwoStoresRace(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "t.din")
	bodies := [][]byte{[]byte("0 1000\n"), []byte("1 1000\n")}
	if err := os.WriteFile(p, bodies[0], 0o644); err != nil {
		t.Fatal(err)
	}
	time.Sleep(digestMargin + 100*time.Millisecond) // let the file settle, once
	memos := []*DigestMemo{
		NewDigestMemo(openStore(t, filepath.Join(dir, "store")), time.Now),
		NewDigestMemo(openStore(t, filepath.Join(dir, "store")), time.Now),
	}
	for _, m := range memos {
		sameAsHashFile(t, m, p)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, m := range memos {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, _, err := m.HashFile(p); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
	}
	for i := 0; i < 50; i++ {
		if err := os.WriteFile(p, bodies[(i+1)%2], 0o644); err != nil {
			t.Error(err)
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	for _, m := range append(memos, NewDigestMemo(openStore(t, filepath.Join(dir, "store")), time.Now)) {
		sameAsHashFile(t, m, p)
	}
}

// TestDigestMemoBadEntries damages a recorded entry on disk: every
// damage costs the next process one hash and never a different digest.
func TestDigestMemoBadEntries(t *testing.T) {
	needMemo(t)
	p := writeTemp(t, "t.din", []byte("0 1000\n"))
	id, _ := statID(p)
	sum, _, err := HashFile(p)
	if err != nil {
		t.Fatal(err)
	}
	good := digestEntry{fileID: id, SHA256: sum, RecordedNS: time.Now().Add(time.Hour).UnixNano()}
	encode := func(e digestEntry) []byte {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	moved := good
	moved.Size++
	young := good
	young.RecordedNS = id.CtimeNS + int64(digestMargin)
	upper := good
	upper.SHA256 = string(bytes.ToUpper([]byte(sum)))

	for name, damage := range map[string]func(d *store.Store, dir string){
		"truncated blob": func(_ *store.Store, dir string) {
			blob := filepath.Join(dir, digestKind, id.key()+".blob")
			if err := os.Truncate(blob, 10); err != nil {
				t.Fatal(err)
			}
		},
		"garbage": func(d *store.Store, _ string) {
			if err := d.Put(digestKind, id.key(), digestRev, nil, []byte("garbage")); err != nil {
				t.Fatal(err)
			}
		},
		"stale schema": func(d *store.Store, _ string) {
			if err := d.Put(digestKind, id.key(), "repro/digest/v0", nil, encode(good)); err != nil {
				t.Fatal(err)
			}
		},
		"other identity": func(d *store.Store, _ string) {
			if err := d.Put(digestKind, id.key(), digestRev, nil, encode(moved)); err != nil {
				t.Fatal(err)
			}
		},
		"recorded inside the margin": func(d *store.Store, _ string) {
			if err := d.Put(digestKind, id.key(), digestRev, nil, encode(young)); err != nil {
				t.Fatal(err)
			}
		},
		"upper-case digest": func(d *store.Store, _ string) {
			if err := d.Put(digestKind, id.key(), digestRev, nil, encode(upper)); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d := openStore(t, dir)
			sameAsHashFile(t, NewDigestMemo(d, settledClock), p)
			damage(d, dir)
			next := NewDigestMemo(openStore(t, dir), settledClock)
			sameAsHashFile(t, next, p)
			wantStats(t, next, 1, 0)
			sameAsHashFile(t, NewDigestMemo(openStore(t, dir), settledClock), p) // repaired
		})
	}
}

// FuzzDigestEntry stores arbitrary bytes, through a real store.Store,
// as the persisted entry of a trace file and takes the file's digest
// through a fresh memo.  Nothing may panic or fail, and the answer must
// be HashFile's unless the entry decodes to the file's exact current
// stat identity with both stamps more than the margin older than its
// recorded time.  The tokens DEV, INO, SIZE, MTIME, CTIME and LATER (a
// settled recorded time) in the input expand to the file's values, so
// the corpus can hold entries that match.
func FuzzDigestEntry(f *testing.F) {
	dir := f.TempDir()
	p := filepath.Join(dir, "t.din")
	if err := os.WriteFile(p, []byte("0 1000\n1 2000\n"), 0o644); err != nil {
		f.Fatal(err)
	}
	d := openStore(f, filepath.Join(dir, "store"))
	want, wantSize, err := HashFile(p)
	if err != nil {
		f.Fatal(err)
	}
	id, _ := statID(p)
	tokens := map[string]int64{
		"DEV": int64(id.Dev), "INO": int64(id.Ino), "SIZE": id.Size,
		"MTIME": id.MtimeNS, "CTIME": id.CtimeNS,
		"LATER": max(id.MtimeNS, id.CtimeNS) + int64(3*digestMargin),
	}
	expand := func(b []byte) []byte {
		for tok, v := range tokens {
			b = bytes.ReplaceAll(b, []byte(tok), []byte(strconv.FormatInt(v, 10)))
		}
		return b
	}
	match := `{"dev":DEV,"ino":INO,"size":SIZE,"mtime_ns":MTIME,"ctime_ns":CTIME,"sha256":"` + want + `","recorded_ns":LATER}`
	for _, s := range []string{
		match, match[:len(match)/2],
		`{"dev":DEV,"ino":INO,"size":SIZE,"mtime_ns":MTIME,"ctime_ns":CTIME,"sha256":"` + string(bytes.Repeat([]byte("ab"), 32)) + `","recorded_ns":LATER}`,
		`{"dev":DEV,"ino":INO,"size":SIZE,"mtime_ns":MTIME,"ctime_ns":CTIME,"sha256":"` + want + `","recorded_ns":CTIME}`,
		`{"dev":DEV,"ino":INO,"size":SIZE,"mtime_ns":MTIME,"ctime_ns":CTIME,"sha256":"` + want + `","recorded_ns":-9223372036854775808}`,
		`{"dev":DEV,"ino":INO,"size":SIZE,"mtime_ns":MTIME,"ctime_ns":CTIME,"sha256":"` + want + `"}`,
		`{"dev":DEV,"ino":INO,"size":-1,"mtime_ns":MTIME,"ctime_ns":CTIME,"sha256":"` + want + `","recorded_ns":LATER}`,
		`{"Dev":DEV,"Ino":INO,"size":SIZE,"mtime_ns":MTIME,"ctime_ns":CTIME,"ctime_ns":0,"sha256":"` + want + `","recorded_ns":LATER}`,
		`{}`, `null`, `[]`, `{"dev":1e3}`, "", "\x00\xff",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		blob := expand(data)
		if err := d.Put(digestKind, id.key(), digestRev, nil, blob); err != nil {
			t.Fatal(err)
		}
		got, gotSize, err := NewDigestMemo(d, time.Now).HashFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if got == want && gotSize == wantSize {
			return
		}
		var e digestEntry
		if json.Unmarshal(blob, &e) != nil {
			t.Fatalf("undecodable entry %q changed the digest to %s (%d bytes)", blob, got, gotSize)
		}
		if e.fileID != id {
			t.Fatalf("entry for %+v, not the file's %+v, changed the digest to %s", e.fileID, id, got)
		}
		rec := time.Unix(0, e.RecordedNS)
		for _, stamp := range []int64{id.MtimeNS, id.CtimeNS} {
			if rec.Sub(time.Unix(0, stamp)) <= digestMargin {
				t.Fatalf("entry recorded at %d, within the margin of stamp %d, changed the digest to %s", e.RecordedNS, stamp, got)
			}
		}
		if got != e.SHA256 || gotSize != id.Size {
			t.Fatalf("memo answered %s (%d bytes), the entry holds %s (%d bytes)", got, gotSize, e.SHA256, id.Size)
		}
	})
}
