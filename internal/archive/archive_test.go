package archive

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
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
	// parent, so its ID differs while its Merkle root is the same.
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

// reseal writes an edited copy of commit c's record under its own hash,
// with c's pack beside it, so the edit reaches the readers past Load.
func reseal(t *testing.T, a *Archive, c *Commit, edit func(*Commit)) *Commit {
	t.Helper()
	e := *c
	e.Chunks = append([]Chunk(nil), c.Chunks...)
	edit(&e)
	rec, err := canonical(&e)
	if err != nil {
		t.Fatal(err)
	}
	pack, err := os.ReadFile(a.packPath(c.ID))
	if err != nil {
		t.Fatal(err)
	}
	e.ID = shaHex(rec)
	if err := os.WriteFile(a.commitPath(e.ID), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(a.packPath(e.ID), pack, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := a.Load(e.ID)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestPackReadsStayInsidePack checks that the recorded sizes, which the
// readers turn into offsets in the pack, cannot reach past it: a record
// that hashes correctly but carries a negative size, a size past the
// pack's end, or sizes whose sum overflows int64 is refused by
// PayloadBytes, Results, Env, Spec and Verify with a problem naming the
// chunk, without a panic. A commit ID that is not 64 lowercase hex
// digits names no pack.
func TestPackReadsStayInsidePack(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(filepath.Join(dir, "archive"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := a.CommitResults("sweep", sampleSpec(), sampleResults())
	if err != nil {
		t.Fatal(err)
	}
	bad := c.Chunks[3].Name
	for _, tc := range []struct {
		name string
		edit func(cs []Chunk)
	}{
		{"negative size", func(cs []Chunk) { cs[3].Size = -1 }},
		{"size past the pack", func(cs []Chunk) { cs[3].Size = 1 << 62 }},
		{"sum overflows int64", func(cs []Chunk) { cs[3].Size = math.MaxInt64 - cs[0].Size - cs[1].Size - cs[2].Size + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := reseal(t, a, c, func(e *Commit) { tc.edit(e.Chunks) })
			defer os.Remove(a.commitPath(h.ID))
			defer os.Remove(a.packPath(h.ID))
			readers := map[string]func() error{
				"PayloadBytes": func() error { _, err := a.PayloadBytes(h, ChunkEnv); return err },
				"Results":      func() error { _, err := a.Results(h); return err },
				"Env":          func() error { _, err := a.Env(h); return err },
				"Spec":         func() error { _, err := a.Spec(h); return err },
			}
			for name, read := range readers {
				if err := read(); err == nil || !strings.Contains(err.Error(), "chunk "+bad) {
					t.Errorf("%s = %v; want an error naming chunk %s", name, err, bad)
				}
			}
			rep, err := a.Verify()
			if err != nil {
				t.Fatal(err)
			}
			named := false
			for _, p := range rep.Problems {
				named = named || (p.Commit == h.ID && p.Chunk == bad)
			}
			if !named {
				t.Errorf("Verify problems %+v name no chunk %s of %s", rep.Problems, bad, short(h.ID))
			}
		})
	}

	planted := filepath.Join(dir, "planted.pack")
	if err := os.WriteFile(planted, []byte("planted\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// packs/<id>.pack with this id resolves to planted.pack.
	escape := *c
	escape.ID = "./" + strings.Repeat("./", 24) + "../..//planted"
	for _, id := range []string{escape.ID, strings.ToUpper(c.ID), c.ID[:63] + "g"} {
		if len(id) != 64 {
			t.Fatalf("test ID %q is %d characters, want 64", id, len(id))
		}
		escape.ID = id
		if _, err := a.PayloadBytes(&escape, ChunkEnv); err == nil || !strings.Contains(err.Error(), "hex") {
			t.Errorf("PayloadBytes under commit ID %q = %v; want a not-hex error", id, err)
		}
	}
}

// TestCommitIDsUnchangedByPackLayout pins the commit IDs and Merkle roots
// of fixed payloads to the values the loose chunk layout gave them: the
// pack changes where chunks are stored, not what is hashed.
func TestCommitIDsUnchangedByPackLayout(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payloads := []Payload{
		{Name: ChunkEnv, Data: []byte(`{"go":"go1.24"}` + "\n")},
		{Name: ChunkBench, Data: []byte(`{"results":[]}` + "\n")},
		{Name: "empty", Data: nil},
	}
	const root = "a45ae094eca2f3f6b98ec2231a1e50ac22fb7c0406f969daa24fc50b2dc3f4c8"
	for _, want := range []struct {
		kind, name string
		payloads   []Payload
		id, root   string
	}{
		{KindBench, "first", payloads, "63a755e918fcbd577497b1721e0eb9103c1ba74d4990522c692497407dd11f1b", root},
		{KindBench, "second", payloads, "ab554f28dc0e4b3838564b3ac5d2ded2c33fcc30848e9dea459bde4d68404cda", root},
		{KindResults, "none", nil, "37d767d6f77432866f9f76e5d46001955c09845d6f6fab62df77d42ea7e5d7b9",
			"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	} {
		c, err := a.commit(want.kind, want.name, want.payloads)
		if err != nil {
			t.Fatal(err)
		}
		if c.ID != want.id || c.Root != want.root {
			t.Errorf("commit %q: ID %s root %s, want ID %s root %s", want.name, c.ID, c.Root, want.id, want.root)
		}
	}
	if rep, err := a.Verify(); err != nil || !rep.OK() {
		t.Fatalf("Verify = %+v, %v", rep, err)
	}
}

// TestResultsCommitWritesOnePack checks the seal's footprint: a results
// commit of N jobs leaves exactly one pack and one record (plus HEAD),
// the pack holding every chunk back to back.
func TestResultsCommitWritesOnePack(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	results := sampleResults()
	c, err := a.CommitResults("sweep", sampleSpec(), results)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Chunks) != len(results)+2 {
		t.Fatalf("%d chunks for %d jobs, want %d", len(c.Chunks), len(results), len(results)+2)
	}
	for sub, want := range map[string]string{"packs": c.ID + ".pack", "commits": c.ID + ".json"} {
		entries, err := os.ReadDir(filepath.Join(a.Dir(), sub))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != want {
			t.Errorf("%s/ holds %v, want only %s", sub, entries, want)
		}
	}
	fi, err := os.Stat(a.packPath(c.ID))
	if err != nil {
		t.Fatal(err)
	}
	var size int64
	for _, ch := range c.Chunks {
		size += ch.Size
	}
	if fi.Size() != size {
		t.Errorf("pack holds %d bytes, chunks sum to %d", fi.Size(), size)
	}
}

// TestOpenRefusesLooseLayout checks that an archive in the pre-pack
// layout, one file per chunk under chunks/, fails loudly at Open rather
// than verifying as one missing pack per commit.
func TestOpenRefusesLooseLayout(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "chunks", "4f"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "loose layout") {
		t.Fatalf("Open of a loose-layout archive = %v; want a loose-layout error", err)
	}
}

// corruptChunk locates the chunk with the given logical name in its
// commit's pack and applies damage to the pack: data is the whole pack,
// [off, end) the chunk's bytes in it.
func corruptChunk(t *testing.T, a *Archive, c *Commit, name string, damage func(path string, data []byte, off, end int64)) {
	t.Helper()
	path, off, end, err := a.ChunkRange(c, name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damage(path, b, off, end)
}

// TestVerifyCorruptionMatrix is the corruption acceptance matrix: a
// flipped chunk byte, a truncated pack, a chunk cut out of its pack, a
// deleted pack, a pack grown by trailing bytes, a tampered commit
// record, a broken parent chain and a dangling HEAD must each be
// detected, and chunk damage must name the exact chunk.
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

	write := func(t *testing.T, path string, b []byte) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("flipped chunk byte", func(t *testing.T) {
		a, _, c2 := build(t)
		name := "result-000003.json"
		corruptChunk(t, a, c2, name, func(path string, b []byte, off, end int64) {
			b[(off+end)/2] ^= 0x01
			write(t, path, b)
		})
		rep, err := a.Verify()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Problems) != 1 || rep.Problems[0].Chunk != name || !strings.Contains(rep.Problems[0].Detail, "chunk corrupt") {
			t.Errorf("problems %+v, want exactly chunk %s corrupt", rep.Problems, name)
		}
	})

	t.Run("truncated chunk", func(t *testing.T) {
		a, c1, _ := build(t)
		corruptChunk(t, a, c1, ChunkBench, func(path string, b []byte, off, end int64) {
			write(t, path, b[:(off+end)/2])
		})
		mustProblem(t, a, c1.ID, ChunkBench, "truncated")
	})

	t.Run("deleted chunk", func(t *testing.T) {
		a, _, c2 := build(t)
		corruptChunk(t, a, c2, ChunkSpec, func(path string, b []byte, off, end int64) {
			write(t, path, append(b[:off:off], b[end:]...))
		})
		mustProblem(t, a, c2.ID, ChunkSpec, "chunk corrupt")
		mustProblem(t, a, c2.ID, c2.Chunks[len(c2.Chunks)-1].Name, "truncated")
	})

	t.Run("deleted pack", func(t *testing.T) {
		a, c1, c2 := build(t)
		for _, c := range []*Commit{c1, c2} {
			if err := os.Remove(a.packPath(c.ID)); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := a.Verify()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Problems) != 2 {
			t.Errorf("problems %+v, want one per commit", rep.Problems)
		}
		mustProblem(t, a, c1.ID, "", "pack unreadable")
		mustProblem(t, a, c2.ID, "", "pack unreadable")
	})

	t.Run("pack grown by trailing bytes", func(t *testing.T) {
		a, c1, _ := build(t)
		corruptChunk(t, a, c1, ChunkBench, func(path string, b []byte, _, _ int64) {
			write(t, path, append(b, "trailing"...))
		})
		rep, err := a.Verify()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Problems) != 1 || rep.Problems[0].Chunk != "" || !strings.Contains(rep.Problems[0].Detail, "pack grown: 8 bytes") {
			t.Errorf("problems %+v, want one commit-level grown-pack problem", rep.Problems)
		}
		if _, err := a.PayloadBytes(c1, ChunkBench); err != nil {
			t.Errorf("PayloadBytes past a grown pack's chunks: %v", err)
		}
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
