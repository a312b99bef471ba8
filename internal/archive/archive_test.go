package archive

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/core"
)

// sampleResults builds a deterministic multi-job result set with fixed
// timestamps, as a completed sweep would produce.
func sampleResults() []core.JobResult {
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	algs := []algorithms.Algorithm{algorithms.BFS, algorithms.CDLP, algorithms.SSSP}
	var out []core.JobResult
	for i, alg := range algs {
		for rep := 0; rep < 2; rep++ {
			out = append(out, core.JobResult{
				Spec: core.JobSpec{
					Platform: "native", Dataset: "R5(L)", Algorithm: alg,
					Threads: 4, Machines: 1,
				},
				Status:         core.StatusOK,
				Timestamp:      base.Add(time.Duration(i*2+rep) * time.Minute),
				Scale:          7.5,
				UploadTime:     120 * time.Millisecond,
				Makespan:       time.Duration(300+10*i) * time.Millisecond,
				ProcessingTime: time.Duration(200+10*i) * time.Millisecond,
				EPS:            1e6,
				Rounds:         3 + i,
				Validated:      true,
				ValidationOK:   true,
			})
		}
	}
	return out
}

func sampleSpec() *core.BenchSpec {
	return &core.BenchSpec{
		Name:       "sample-sweep",
		Platforms:  []string{"native"},
		Datasets:   core.DatasetSelector{IDs: []string{"R5(L)"}},
		Algorithms: []algorithms.Algorithm{algorithms.BFS, algorithms.CDLP, algorithms.SSSP},
	}
}

// TestCommitDeterministic is the canonical-encoding acceptance test:
// the same spec and the same results committed into two fresh archives
// must produce byte-identical commit records, the same commit ID, and
// the same Merkle root.
func TestCommitDeterministic(t *testing.T) {
	ids := make([]string, 2)
	roots := make([]string, 2)
	recs := make([][]byte, 2)
	for i := range ids {
		a, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		c, err := a.CommitResults("sweep", sampleSpec(), sampleResults())
		if err != nil {
			t.Fatal(err)
		}
		rec, err := os.ReadFile(a.commitPath(c.ID))
		if err != nil {
			t.Fatal(err)
		}
		ids[i], roots[i], recs[i] = c.ID, c.Root, rec
	}
	if ids[0] != ids[1] {
		t.Errorf("commit IDs differ: %s vs %s", ids[0], ids[1])
	}
	if roots[0] != roots[1] {
		t.Errorf("merkle roots differ: %s vs %s", roots[0], roots[1])
	}
	if !bytes.Equal(recs[0], recs[1]) {
		t.Errorf("commit records not byte-identical:\n%s\n%s", recs[0], recs[1])
	}
	if got := shaHex(recs[0]); got != ids[0] {
		t.Errorf("commit ID %s is not the SHA-256 of the record bytes (%s)", ids[0], got)
	}
}

func TestChainHeadAndLog(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if head, err := a.Head(); err != nil || head != "" {
		t.Fatalf("empty archive Head = %q, %v", head, err)
	}
	c1, err := a.CommitBench("bench-1", []byte(`{"results":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if c1.Parent != "" {
		t.Errorf("first commit parent = %q, want empty", c1.Parent)
	}
	c2, err := a.CommitResults("run-2", nil, sampleResults())
	if err != nil {
		t.Fatal(err)
	}
	if c2.Parent != c1.ID {
		t.Errorf("second commit parent = %s, want %s", short(c2.Parent), short(c1.ID))
	}
	head, err := a.Head()
	if err != nil || head != c2.ID {
		t.Fatalf("Head = %s, %v, want %s", short(head), err, short(c2.ID))
	}
	log, err := a.Log(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 || log[0].ID != c2.ID || log[1].ID != c1.ID {
		t.Fatalf("Log order wrong: %+v", log)
	}
	// Same-content bench commits chain, not dedup: the second has a
	// parent, so its ID differs while its chunks are shared.
	c3, err := a.CommitBench("bench-1", []byte(`{"results":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if c3.ID == c1.ID {
		t.Error("chained commit with same content reused the same ID")
	}
	if c3.Root != c1.Root {
		t.Error("same content should re-derive the same merkle root")
	}
}

func TestResultsAndPayloadRoundTrip(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := sampleResults()
	c, err := a.CommitResults("sweep", sampleSpec(), want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Results(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round-tripped %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Spec != want[i].Spec || got[i].Status != want[i].Status ||
			!got[i].Timestamp.Equal(want[i].Timestamp) || got[i].Makespan != want[i].Makespan {
			t.Errorf("result %d round-trip mismatch:\ngot  %+v\nwant %+v", i, got[i], want[i])
		}
	}
	spec, err := a.Spec(c)
	if err != nil {
		t.Fatal(err)
	}
	if spec == nil || spec.Name != "sample-sweep" {
		t.Fatalf("spec round-trip: %+v", spec)
	}
	env, err := a.Env(c)
	if err != nil {
		t.Fatal(err)
	}
	if env.Go == "" || env.CPUs <= 0 {
		t.Errorf("environment chunk incomplete: %+v", env)
	}

	bench := []byte(`{"date":"2026-08-07","results":[{"name":"X","ns_per_op":1}]}` + "\n")
	cb, err := a.CommitBench("snap", bench)
	if err != nil {
		t.Fatal(err)
	}
	back, err := a.PayloadBytes(cb, ChunkBench)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, bench) {
		t.Error("bench payload did not round-trip byte-for-byte")
	}
}

func TestResolve(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Resolve("HEAD"); err == nil {
		t.Error("Resolve(HEAD) on empty archive should fail")
	}
	c, err := a.CommitBench("snap", []byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range []string{"HEAD", "", c.ID, c.ID[:8]} {
		id, err := a.Resolve(ref)
		if err != nil || id != c.ID {
			t.Errorf("Resolve(%q) = %s, %v, want %s", ref, short(id), err, short(c.ID))
		}
	}
	if _, err := a.Resolve("ab"); err == nil {
		t.Error("Resolve with a 2-char prefix should be rejected as ambiguous")
	}
}

// TestResolveRejectsNonHexFullRefs checks that a 64-character ref is a
// commit ID only if it is lowercase hex: a ref that climbs out of commits/
// must not reach a record planted next to the archive.
func TestResolveRejectsNonHexFullRefs(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(filepath.Join(dir, "archive"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := a.CommitBench("snap", []byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := os.ReadFile(a.commitPath(c.ID))
	if err != nil {
		t.Fatal(err)
	}
	escape := "../../" + strings.Repeat("x", 58)
	if err := os.WriteFile(filepath.Join(dir, strings.Repeat("x", 58)+".json"), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, ref := range []string{escape, strings.ToUpper(c.ID), c.ID[:63] + "g"} {
		if len(ref) != 64 {
			t.Fatalf("test ref %q is %d characters, want 64", ref, len(ref))
		}
		if id, err := a.Resolve(ref); err == nil || !strings.Contains(err.Error(), "hex") {
			t.Errorf("Resolve(%q) = %q, %v; want a not-hex error", ref, id, err)
		}
		if _, err := a.Load(ref); err == nil || !strings.Contains(err.Error(), "hex") {
			t.Errorf("Load(%q) = %v; want a not-hex error", ref, err)
		}
	}
	if !IsCommitID(c.ID) {
		t.Errorf("IsCommitID(%q) = false for a sealed commit's ID", c.ID)
	}
}

// TestChunkBytesRejectsNonHexDigests checks that a chunk digest names a
// file only if it is 64 lowercase hex digits: a commit record that hashes
// correctly but records a digest climbing out of chunks/ must not reach a
// file planted next to the archive.
func TestChunkBytesRejectsNonHexDigests(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(filepath.Join(dir, "archive"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := a.CommitBench("snap", []byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	planted := []byte("planted\n")
	if err := os.WriteFile(filepath.Join(dir, "planted"), planted, 0o644); err != nil {
		t.Fatal(err)
	}
	// chunks/./<the rest> resolves to <dir>/planted.
	escape := "./" + strings.Repeat("./", 24) + "../..//planted"
	for _, sha := range []string{escape, strings.ToUpper(shaHex(planted)), c.Chunks[0].SHA256[:63] + "g"} {
		if len(sha) != 64 {
			t.Fatalf("test digest %q is %d characters, want 64", sha, len(sha))
		}
		if _, err := a.ChunkBytes(sha); err == nil || !strings.Contains(err.Error(), "bad chunk digest") {
			t.Errorf("ChunkBytes(%q) = %v; want a bad-digest error", sha, err)
		}
	}
	if _, err := a.ChunkBytes(c.Chunks[0].SHA256); err != nil {
		t.Errorf("ChunkBytes of a sealed chunk: %v", err)
	}
}

// corrupt locates the stored chunk with the given logical name and
// applies damage to its file.
func corruptChunk(t *testing.T, a *Archive, c *Commit, name string, damage func(path string, data []byte)) Chunk {
	t.Helper()
	for _, ch := range c.Chunks {
		if ch.Name == name {
			b, err := os.ReadFile(a.chunkPath(ch.SHA256))
			if err != nil {
				t.Fatal(err)
			}
			damage(a.chunkPath(ch.SHA256), b)
			return ch
		}
	}
	t.Fatalf("no chunk %q in commit", name)
	return Chunk{}
}

// TestVerifyCorruptionMatrix is the corruption acceptance matrix: a
// flipped chunk byte, a truncated chunk, a deleted chunk, a tampered
// commit record, and a broken parent chain must each be detected, and
// chunk damage must name the exact chunk.
func TestVerifyCorruptionMatrix(t *testing.T) {
	build := func(t *testing.T) (*Archive, *Commit, *Commit) {
		a, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		c1, err := a.CommitBench("snap", []byte(`{"results":[{"name":"A","ns_per_op":10}]}`))
		if err != nil {
			t.Fatal(err)
		}
		c2, err := a.CommitResults("sweep", sampleSpec(), sampleResults())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := a.Verify()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("fresh archive fails verify: %+v", rep.Problems)
		}
		if rep.Commits != 2 || rep.Chunks == 0 {
			t.Fatalf("verify coverage: %d commits %d chunks", rep.Commits, rep.Chunks)
		}
		return a, c1, c2
	}
	mustProblem := func(t *testing.T, a *Archive, wantCommit, wantChunk, wantDetail string) {
		t.Helper()
		rep, err := a.Verify()
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK() {
			t.Fatal("Verify reported clean on a corrupted archive")
		}
		for _, p := range rep.Problems {
			if (wantCommit == "" || p.Commit == wantCommit) &&
				(wantChunk == "" || p.Chunk == wantChunk) &&
				strings.Contains(p.Detail, wantDetail) {
				return
			}
		}
		t.Errorf("no problem naming commit=%s chunk=%q detail~%q; got %+v",
			short(wantCommit), wantChunk, wantDetail, rep.Problems)
	}

	t.Run("flipped chunk byte", func(t *testing.T) {
		a, _, c2 := build(t)
		name := "result-000003.json"
		corruptChunk(t, a, c2, name, func(path string, b []byte) {
			b[len(b)/2] ^= 0x01
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		})
		mustProblem(t, a, c2.ID, name, "chunk corrupt")
	})

	t.Run("truncated chunk", func(t *testing.T) {
		a, c1, _ := build(t)
		corruptChunk(t, a, c1, ChunkBench, func(path string, b []byte) {
			if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		})
		mustProblem(t, a, c1.ID, ChunkBench, "truncated")
		mustProblem(t, a, c1.ID, ChunkBench, "chunk corrupt")
	})

	t.Run("deleted chunk", func(t *testing.T) {
		a, _, c2 := build(t)
		corruptChunk(t, a, c2, ChunkSpec, func(path string, _ []byte) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		})
		mustProblem(t, a, c2.ID, ChunkSpec, "chunk missing")
	})

	t.Run("tampered commit record", func(t *testing.T) {
		a, _, c2 := build(t)
		path := a.commitPath(c2.ID)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tampered := bytes.Replace(b, []byte(`"sweep"`), []byte(`"swept"`), 1)
		if bytes.Equal(tampered, b) {
			t.Fatal("tamper had no effect")
		}
		if err := os.WriteFile(path, tampered, 0o644); err != nil {
			t.Fatal(err)
		}
		mustProblem(t, a, c2.ID, "", "commit record tampered")
	})

	t.Run("broken parent chain", func(t *testing.T) {
		a, c1, _ := build(t)
		if err := os.Remove(a.commitPath(c1.ID)); err != nil {
			t.Fatal(err)
		}
		mustProblem(t, a, c1.ID, "", "parent chain broken")
	})

	t.Run("dangling HEAD", func(t *testing.T) {
		a, _, _ := build(t)
		bogus := strings.Repeat("ab", sha256.Size)
		if err := os.WriteFile(filepath.Join(a.Dir(), "HEAD"), []byte(bogus+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		mustProblem(t, a, bogus, "", "HEAD points at missing commit")
	})
}

func TestMerkleRoot(t *testing.T) {
	h := func(b []byte) []byte {
		s := sha256.Sum256(b)
		return s[:]
	}
	pair := func(l, r []byte) []byte {
		s := sha256.New()
		s.Write(l)
		s.Write(r)
		return s.Sum(nil)
	}
	a, b, c := h([]byte("a")), h([]byte("b")), h([]byte("c"))
	if got := merkleRoot([][]byte{a}); !bytes.Equal(got, a) {
		t.Error("single leaf must be its own root")
	}
	if got := merkleRoot([][]byte{a, b}); !bytes.Equal(got, pair(a, b)) {
		t.Error("two-leaf root must be sha256(l||r)")
	}
	// Odd node promotion: root(a,b,c) = pair(pair(a,b), c).
	if got := merkleRoot([][]byte{a, b, c}); !bytes.Equal(got, pair(pair(a, b), c)) {
		t.Error("odd leaf must be promoted, not duplicated")
	}
	if bytes.Equal(merkleRoot([][]byte{a, b}), merkleRoot([][]byte{b, a})) {
		t.Error("root must depend on leaf order")
	}
	if hex.EncodeToString(merkleRoot(nil)) != shaHex(nil) {
		t.Error("empty batch root must be sha256 of empty string")
	}
}
