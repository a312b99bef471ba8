package archive

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// FuzzLoadCommit feeds (record, pack) pairs to a fresh archive: the
// record is written under its own hash and made HEAD, the pack beside it
// under the same hash. Then Load, Log, PayloadBytes, Results, Env, Spec
// and Verify run on it. None may panic. Load accepts exactly the records
// that decode, and rejects the same bytes with one byte changed. A
// reader returns bytes only if they hash to the recorded digest, and
// Verify never reports OK on a pair whose chunk a reader refused. The
// seeds are ci/baseline-archive's commit with its pack, the results
// batch of the archive tests with its pack, and that batch with a
// negative size, a size of 1<<62 and a digest that is not hex.
func FuzzLoadCommit(f *testing.F) {
	baseline := filepath.Join("..", "..", "ci", "baseline-archive")
	head, err := os.ReadFile(filepath.Join(baseline, "HEAD"))
	if err != nil {
		f.Fatal(err)
	}
	id := strings.TrimSpace(string(head))
	rec, err := os.ReadFile(filepath.Join(baseline, "commits", id+".json"))
	if err != nil {
		f.Fatal(err)
	}
	pack, err := os.ReadFile(filepath.Join(baseline, "packs", id+".pack"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec, pack)

	src, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	c, err := src.CommitResults("sweep", sampleSpec(), sampleResults())
	if err != nil {
		f.Fatal(err)
	}
	if rec, err = os.ReadFile(src.commitPath(c.ID)); err != nil {
		f.Fatal(err)
	}
	if pack, err = os.ReadFile(src.packPath(c.ID)); err != nil {
		f.Fatal(err)
	}
	f.Add(rec, pack)
	for _, edit := range []func(cs []Chunk){
		func(cs []Chunk) { cs[1].Size = -1 },
		func(cs []Chunk) { cs[1].Size = 1 << 62 },
		func(cs []Chunk) { cs[0].SHA256 = "./" + strings.Repeat("./", 27) + "..//HEAD" },
	} {
		e := *c
		e.Chunks = slices.Clone(c.Chunks)
		edit(e.Chunks)
		b, err := canonical(&e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, pack)
	}

	f.Fuzz(func(t *testing.T, rec, pack []byte) {
		a, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		id := shaHex(rec)
		write := func(path string, b []byte) {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write(a.packPath(id), pack)
		write(a.headPath(), []byte(id+"\n"))
		if len(rec) > 0 {
			tampered := bytes.Clone(rec)
			tampered[len(rec)/2] ^= 1
			write(a.commitPath(id), tampered)
			if _, err := a.Load(id); err == nil {
				t.Fatal("Load accepted a record whose bytes do not hash to its ID")
			}
		}
		write(a.commitPath(id), rec)
		c, err := a.Load(id)
		if json.Unmarshal(rec, new(Commit)) != nil {
			if err == nil {
				t.Fatal("Load accepted an undecodable record")
			}
			return
		}
		if err != nil || c.ID != id {
			t.Fatalf("Load of a decodable record under its hash = %v, %v", c, err)
		}
		if log, err := a.Log(0); err == nil && (len(log) == 0 || log[0].ID != id) {
			t.Fatalf("Log from HEAD %s does not start with it", short(id))
		}

		// intact[i] says whether chunk i lies inside the pack, taking
		// the sizes before it off the pack's front, and hashes to its
		// recorded digest; want holds the bytes of the first chunk of
		// each name, and rest what follows the last chunk (nil when a
		// chunk does not fit).
		intact := make([]bool, len(c.Chunks))
		want := make(map[string][]byte)
		rest := pack
		for i, ch := range c.Chunks {
			if ch.Size < 0 || ch.Size > int64(len(rest)) {
				rest = nil
				break
			}
			intact[i] = shaHex(rest[:ch.Size]) == ch.SHA256
			if _, ok := want[ch.Name]; !ok {
				want[ch.Name] = rest[:ch.Size]
			}
			rest = rest[ch.Size:]
		}
		// broken reports whether the first chunk named name, the one the
		// readers read, is not intact.
		broken := func(name string) bool {
			i := slices.IndexFunc(c.Chunks, func(ch Chunk) bool { return ch.Name == name })
			return i >= 0 && !intact[i]
		}

		refused := false
		for _, ch := range c.Chunks {
			b, err := a.PayloadBytes(c, ch.Name)
			if err != nil {
				refused = true
			} else if broken(ch.Name) || !bytes.Equal(b, want[ch.Name]) {
				t.Fatalf("PayloadBytes(%q) returned bytes other than the intact chunk's", ch.Name)
			}
		}
		if _, err := a.Results(c); err == nil {
			for i, ch := range c.Chunks {
				if isResultChunk(ch.Name) && !intact[i] {
					t.Fatalf("Results read chunk %q, which is not intact", ch.Name)
				}
			}
		}
		if _, err := a.Env(c); err == nil && broken(ChunkEnv) {
			t.Fatal("Env read a chunk that is not intact")
		}
		if _, err := a.Spec(c); err == nil && broken(ChunkSpec) {
			t.Fatal("Spec read a chunk that is not intact")
		}
		rep, err := a.Verify()
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK() && (refused || slices.Contains(intact, false) || len(rest) > 0) {
			t.Fatalf("Verify reported OK on a commit whose pack does not hold its chunks exactly (refused by a reader: %v)", refused)
		}
	})
}
