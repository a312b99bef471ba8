package archive

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzLoadCommit feeds commit records to an archive that holds a sealed
// results batch and ci/baseline-archive's chunks. Each record is written
// under its own hash and made HEAD, and removed after; then Load,
// Log, Results, Env and Spec run on it. None may panic. Load accepts
// exactly the records that decode, and rejects the same bytes with one
// byte changed. A recorded digest that is not 64 lowercase hex digits is
// refused before it names a file, and a reader that succeeds read only
// chunks with well-formed digests. The seeds are the baseline archive's
// commits, the results batch's, and that batch with its environment
// digest climbing out of chunks/.
func FuzzLoadCommit(f *testing.F) {
	base, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	c, err := base.CommitResults("sweep", sampleSpec(), sampleResults())
	if err != nil {
		f.Fatal(err)
	}
	results, err := os.ReadFile(base.commitPath(c.ID))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(results)
	for _, ch := range c.Chunks {
		if ch.Name == ChunkEnv {
			f.Add(bytes.Replace(results, []byte(ch.SHA256), []byte("./"+strings.Repeat("./", 27)+"..//HEAD"), 1))
		}
	}
	baseline := filepath.Join("..", "..", "ci", "baseline-archive")
	records, err := filepath.Glob(filepath.Join(baseline, "commits", "*.json"))
	if err != nil || len(records) == 0 {
		f.Fatalf("no baseline commits: %v", err)
	}
	for _, path := range records {
		rec, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
	}
	chunks, err := filepath.Glob(filepath.Join(baseline, "chunks", "*", "*"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range chunks {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if err := base.writeChunk(filepath.Base(path), b); err != nil {
			f.Fatal(err)
		}
	}

	f.Fuzz(func(t *testing.T, rec []byte) {
		a := base
		id := shaHex(rec)
		write := func(b []byte) {
			if err := os.WriteFile(a.commitPath(id), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write(rec)
		defer os.Remove(a.commitPath(id))
		if err := os.WriteFile(a.headPath(), []byte(id+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if len(rec) > 0 {
			tampered := bytes.Clone(rec)
			tampered[len(rec)/2] ^= 1
			write(tampered)
			if _, err := a.Load(id); err == nil {
				t.Fatal("Load accepted a record whose bytes do not hash to its ID")
			}
			write(rec)
		}
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

		for _, ch := range c.Chunks {
			b, err := a.ChunkBytes(ch.SHA256)
			if !IsCommitID(ch.SHA256) {
				if err == nil || !strings.Contains(err.Error(), "bad chunk digest") {
					t.Fatalf("ChunkBytes(%q) = %v; want a bad-digest error", ch.SHA256, err)
				}
			} else if err == nil && shaHex(b) != ch.SHA256 {
				t.Fatalf("ChunkBytes(%s) returned bytes that hash elsewhere", short(ch.SHA256))
			}
		}
		// first reports whether the first chunk named name, if any, has a
		// well-formed digest.
		first := func(name string) bool {
			for _, ch := range c.Chunks {
				if ch.Name == name {
					return IsCommitID(ch.SHA256)
				}
			}
			return true
		}
		if _, err := a.Results(c); err == nil {
			for _, ch := range c.Chunks {
				if isResultChunk(ch.Name) && !IsCommitID(ch.SHA256) {
					t.Fatalf("Results read chunk %q by the bad digest %q", ch.Name, ch.SHA256)
				}
			}
		}
		if _, err := a.Env(c); err == nil && !first(ChunkEnv) {
			t.Fatal("Env read a chunk by a bad digest")
		}
		if _, err := a.Spec(c); err == nil && !first(ChunkSpec) {
			t.Fatal("Spec read a chunk by a bad digest")
		}
	})
}
