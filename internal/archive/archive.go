// Package archive is the harness's durable, tamper-evident result
// store: a content-addressed, append-only archive of benchmark runs.
//
// Every completed run commits a record batch — the results, the
// environment they were measured in, and the spec that produced them —
// as a set of chunks recorded by SHA-256 digest and size, sealed under a
// Merkle root and chained to the previous commit. Because every byte in
// the store is reachable only through a hash that covers it, Verify can
// re-derive the entire archive offline and name the exact chunk that
// was tampered with or rotted.
//
// Layout on disk (a commit writes these three files, each written then
// renamed into place and never rewritten):
//
//	<dir>/packs/<id>.pack          the chunks' bytes in batch order, indexed
//	                               by the record's sizes
//	<dir>/commits/<id>.json        canonical commit record, id = SHA-256
//	                               of the record's own bytes
//	<dir>/HEAD                     hex id of the latest commit
//
// Commit records are canonical bytes: encoding/json with struct fields
// in schema order, map keys sorted, HTML escaping off, no indentation,
// one trailing newline. A commit contains no self-generated timestamps
// or entropy, so the same spec and the same results produce
// byte-identical commits and an identical Merkle root on every machine
// with the same environment.
package archive

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"graphalytics/internal/core"
)

// Commit kinds: a results batch archives one RunPlan/daemon run; a
// bench batch archives one scripts/bench.sh performance snapshot.
const (
	KindResults = "results"
	KindBench   = "bench"
)

// Version is the archive format version stamped into every commit.
const Version = 1

// Chunk names inside a batch. Results batches additionally hold one
// ChunkResultPattern-named chunk per job result.
const (
	ChunkEnv           = "env.json"
	ChunkSpec          = "spec.json"
	ChunkBench         = "bench.json"
	ChunkResultPattern = "result-%06d.json"
)

// Chunk is one content-addressed payload of a commit: a logical name
// inside the batch, the SHA-256 of its bytes, and its size.
type Chunk struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
	Size   int64  `json:"size"`
}

// Commit is one sealed record batch. Its ID is not stored inside the
// record — it *is* the SHA-256 of the record's canonical bytes, so the
// Parent field chains commit contents, not just names, and editing any
// field of any ancestor changes every descendant's ID.
type Commit struct {
	// ID is the commit's identity: SHA-256 (hex) of the canonical record
	// bytes. Derived, never serialized.
	ID string `json:"-"`

	Version int    `json:"version"`
	Kind    string `json:"kind"`
	Name    string `json:"name"`
	// Parent is the ID of the previous commit ("" for the first), sealing
	// the archive into a chain.
	Parent string `json:"parent,omitempty"`
	// Root is the Merkle root over the chunk digests, in batch order.
	Root   string  `json:"merkle_root"`
	Chunks []Chunk `json:"chunks"`
}

// Payload is one named chunk-to-be of a batch.
type Payload struct {
	Name string
	Data []byte
}

// Archive is an open archive directory. All methods are safe for
// concurrent use; commits are serialized.
type Archive struct {
	dir string
	mu  sync.Mutex
}

// Open opens (creating if needed) the archive at dir. An archive in the
// loose layout, one file per chunk under chunks/, is refused.
func Open(dir string) (*Archive, error) {
	if _, err := os.Lstat(filepath.Join(dir, "chunks")); !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("archive: open %s: it has a chunks/ entry, the pre-pack loose layout, which this archive does not read", dir)
	}
	for _, sub := range []string{"packs", "commits"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("archive: open %s: %w", dir, err)
		}
	}
	return &Archive{dir: dir}, nil
}

// Dir returns the archive's root directory.
func (a *Archive) Dir() string { return a.dir }

func (a *Archive) packPath(id string) string {
	return filepath.Join(a.dir, "packs", id+".pack")
}

func (a *Archive) commitPath(id string) string {
	return filepath.Join(a.dir, "commits", id+".json")
}

func (a *Archive) headPath() string { return filepath.Join(a.dir, "HEAD") }

// canonical encodes v as the archive's canonical JSON bytes: struct
// fields in schema order, map keys sorted (an encoding/json guarantee),
// HTML escaping off, no indentation, exactly one trailing newline.
func canonical(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, fmt.Errorf("archive: encode: %w", err)
	}
	return buf.Bytes(), nil
}

func shaHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Head returns the ID of the latest commit, or "" for an empty archive.
func (a *Archive) Head() (string, error) {
	b, err := os.ReadFile(a.headPath())
	if errors.Is(err, os.ErrNotExist) {
		return "", nil
	}
	if err != nil {
		return "", fmt.Errorf("archive: read HEAD: %w", err)
	}
	return strings.TrimRight(string(b), "\n\r "), nil
}

// Load reads and decodes one commit record by ID. The returned commit's
// ID is recomputed from the file bytes; a mismatch with the requested ID
// means the record was tampered with and is reported as an error.
func (a *Archive) Load(id string) (*Commit, error) {
	if !IsCommitID(id) {
		return nil, fmt.Errorf("archive: commit ID %q is not %d lowercase hex digits", id, sha256.Size*2)
	}
	b, err := os.ReadFile(a.commitPath(id))
	if err != nil {
		return nil, fmt.Errorf("archive: load commit %s: %w", short(id), err)
	}
	var c Commit
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("archive: decode commit %s: %w", short(id), err)
	}
	c.ID = shaHex(b)
	if c.ID != id {
		return nil, fmt.Errorf("archive: commit %s: record bytes hash to %s (tampered record)", short(id), short(c.ID))
	}
	return &c, nil
}

// Resolve turns a commit reference — "HEAD", a full hex ID, or a unique
// ID prefix of at least 4 hex digits — into a full commit ID.
func (a *Archive) Resolve(ref string) (string, error) {
	if ref == "" || ref == "HEAD" {
		id, err := a.Head()
		if err != nil {
			return "", err
		}
		if id == "" {
			return "", errors.New("archive: empty archive (no HEAD)")
		}
		return id, nil
	}
	if len(ref) == sha256.Size*2 {
		if !IsCommitID(ref) {
			return "", fmt.Errorf("archive: commit ref %q is not %d lowercase hex digits", ref, sha256.Size*2)
		}
		return ref, nil
	}
	if len(ref) < 4 {
		return "", fmt.Errorf("archive: ambiguous commit ref %q (need >= 4 hex digits)", ref)
	}
	entries, err := os.ReadDir(filepath.Join(a.dir, "commits"))
	if err != nil {
		return "", fmt.Errorf("archive: list commits: %w", err)
	}
	var matches []string
	for _, e := range entries {
		id := strings.TrimSuffix(e.Name(), ".json")
		if strings.HasPrefix(id, ref) {
			matches = append(matches, id)
		}
	}
	switch len(matches) {
	case 0:
		return "", fmt.Errorf("archive: no commit matches %q", ref)
	case 1:
		return matches[0], nil
	default:
		sort.Strings(matches)
		return "", fmt.Errorf("archive: ref %q is ambiguous (%d matches)", ref, len(matches))
	}
}

// IsCommitID reports whether s is a full commit ID: 64 lowercase hex
// digits, the only form that is ever joined into a path under commits/.
// A pack is read only under a commit ID of this form.
func IsCommitID(s string) bool {
	return len(s) == sha256.Size*2 && strings.Trim(s, "0123456789abcdef") == ""
}

// Log walks the commit chain from HEAD toward the first commit,
// returning up to limit commits, newest first (limit <= 0: all).
func (a *Archive) Log(limit int) ([]*Commit, error) {
	id, err := a.Head()
	if err != nil {
		return nil, err
	}
	var out []*Commit
	seen := make(map[string]bool)
	for id != "" {
		if limit > 0 && len(out) >= limit {
			break
		}
		if seen[id] {
			return out, fmt.Errorf("archive: commit chain cycles at %s", short(id))
		}
		seen[id] = true
		c, err := a.Load(id)
		if err != nil {
			return out, err
		}
		out = append(out, c)
		id = c.Parent
	}
	return out, nil
}

// readPack reads commit id's pack, the one file chunks are read from.
func (a *Archive) readPack(id string) ([]byte, error) {
	if !IsCommitID(id) {
		return nil, fmt.Errorf("commit ID %q is not %d lowercase hex digits", id, sha256.Size*2)
	}
	return os.ReadFile(a.packPath(id))
}

// split cuts pack into c's chunks: the record is the pack's index, chunk
// i being pack[Σ size(<i) : Σ size(≤i)]. It returns the chunks that lie
// inside the pack and, at the first that does not (a negative size, or
// one running past the end), a problem naming it. Digests are not
// checked, and bytes past the last chunk are left to Verify.
func split(c *Commit, pack []byte) ([][]byte, *Problem) {
	parts := make([][]byte, 0, len(c.Chunks))
	var off int64
	for _, ch := range c.Chunks {
		if ch.Size < 0 || ch.Size > int64(len(pack))-off {
			return parts, &Problem{Commit: c.ID, Chunk: ch.Name, Detail: fmt.Sprintf(
				"chunk truncated or mis-sized: recorded %d bytes at offset %d, pack holds %d", ch.Size, off, len(pack))}
		}
		parts = append(parts, pack[off:off+ch.Size:off+ch.Size])
		off += ch.Size
	}
	return parts, nil
}

// check reports a problem unless b hashes to ch's recorded digest.
func check(c *Commit, ch Chunk, b []byte) *Problem {
	if got := shaHex(b); got != ch.SHA256 {
		return &Problem{Commit: c.ID, Chunk: ch.Name,
			Detail: fmt.Sprintf("chunk corrupt: bytes hash to %s, recorded %s", short(got), short(ch.SHA256))}
	}
	return nil
}

// chunks reads c's pack and cuts it into c's chunks (see split),
// refusing the commit if any chunk does not lie inside the pack.
func (a *Archive) chunks(c *Commit) ([][]byte, error) {
	pack, err := a.readPack(c.ID)
	if err != nil {
		return nil, fmt.Errorf("archive: commit %s: read pack: %w", short(c.ID), err)
	}
	parts, p := split(c, pack)
	if p != nil {
		return nil, p.err()
	}
	return parts, nil
}

// PayloadBytes reads the chunk named name from commit c's pack,
// verified against its recorded digest.
func (a *Archive) PayloadBytes(c *Commit, name string) ([]byte, error) {
	i := slices.IndexFunc(c.Chunks, func(ch Chunk) bool { return ch.Name == name })
	if i < 0 {
		return nil, fmt.Errorf("archive: commit %s has no chunk %q", short(c.ID), name)
	}
	parts, err := a.chunks(c)
	if err != nil {
		return nil, err
	}
	if p := check(c, c.Chunks[i], parts[i]); p != nil {
		return nil, p.err()
	}
	return parts[i], nil
}

// ChunkRange locates the chunk named name of commit c as PayloadBytes
// reads it: the pack's path and the chunk's byte range [off, end) in it.
func (a *Archive) ChunkRange(c *Commit, name string) (path string, off, end int64, err error) {
	b, err := a.PayloadBytes(c, name)
	for _, ch := range c.Chunks {
		if ch.Name == name {
			break
		}
		off += ch.Size
	}
	return a.packPath(c.ID), off, off + int64(len(b)), err
}

// commit seals payloads into a new commit chained to the current HEAD:
// their pack, the record, then HEAD.
func (a *Archive) commit(kind, name string, payloads []Payload) (*Commit, error) {
	a.mu.Lock()
	defer a.mu.Unlock()

	parent, err := a.Head()
	if err != nil {
		return nil, err
	}
	c := &Commit{Version: Version, Kind: kind, Name: name, Parent: parent}
	leaves := make([][]byte, 0, len(payloads))
	var pack []byte
	for _, p := range payloads {
		sum := sha256.Sum256(p.Data)
		c.Chunks = append(c.Chunks, Chunk{Name: p.Name, SHA256: hex.EncodeToString(sum[:]), Size: int64(len(p.Data))})
		leaves = append(leaves, sum[:])
		pack = append(pack, p.Data...)
	}
	c.Root = hex.EncodeToString(merkleRoot(leaves))

	rec, err := canonical(c)
	if err != nil {
		return nil, err
	}
	c.ID = shaHex(rec)
	if err := writeFileAtomic(a.packPath(c.ID), pack); err != nil {
		return nil, err
	}
	if err := writeFileAtomic(a.commitPath(c.ID), rec); err != nil {
		return nil, err
	}
	if err := writeFileAtomic(a.headPath(), []byte(c.ID+"\n")); err != nil {
		return nil, err
	}
	return c, nil
}

// writeFileAtomic writes data to path via a temp file and rename, so a
// crash never leaves a half-written record in the store.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("archive: write %s: %w", filepath.Base(path), err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("archive: write %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("archive: write %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("archive: write %s: %w", filepath.Base(path), err)
	}
	return nil
}

// CommitResults seals one completed run — its environment, the spec
// that produced it (omitted when nil), and every job result in commit
// order — into a results commit.
func (a *Archive) CommitResults(name string, spec *core.BenchSpec, results []core.JobResult) (*Commit, error) {
	payloads := make([]Payload, 0, len(results)+2)
	env, err := canonical(CaptureEnv())
	if err != nil {
		return nil, err
	}
	payloads = append(payloads, Payload{Name: ChunkEnv, Data: env})
	if spec != nil {
		b, err := canonical(spec)
		if err != nil {
			return nil, err
		}
		payloads = append(payloads, Payload{Name: ChunkSpec, Data: b})
	}
	for i, r := range results {
		b, err := canonical(r)
		if err != nil {
			return nil, err
		}
		payloads = append(payloads, Payload{Name: fmt.Sprintf(ChunkResultPattern, i), Data: b})
	}
	return a.commit(KindResults, name, payloads)
}

// ArchiveResults implements core.ResultsArchiver: it seals the batch
// and returns the commit's Merkle root chain ID (the commit ID).
func (a *Archive) ArchiveResults(name string, spec *core.BenchSpec, results []core.JobResult) (string, error) {
	c, err := a.CommitResults(name, spec, results)
	if err != nil {
		return "", err
	}
	return c.ID, nil
}

// CommitBench seals one scripts/bench.sh snapshot verbatim — benchJSON
// is stored byte-for-byte, so the BENCH_<date>.json artifact can be
// re-derived exactly from the archive.
func (a *Archive) CommitBench(name string, benchJSON []byte) (*Commit, error) {
	env, err := canonical(CaptureEnv())
	if err != nil {
		return nil, err
	}
	return a.commit(KindBench, name, []Payload{
		{Name: ChunkEnv, Data: env},
		{Name: ChunkBench, Data: benchJSON},
	})
}

// Results decodes every job result stored in a results commit, in batch
// order, each verified against its recorded digest.
func (a *Archive) Results(c *Commit) ([]core.JobResult, error) {
	if c.Kind != KindResults {
		return nil, fmt.Errorf("archive: commit %s is a %q commit, not %q", short(c.ID), c.Kind, KindResults)
	}
	parts, err := a.chunks(c)
	if err != nil {
		return nil, err
	}
	var out []core.JobResult
	for i, ch := range c.Chunks {
		if !isResultChunk(ch.Name) {
			continue
		}
		if p := check(c, ch, parts[i]); p != nil {
			return nil, p.err()
		}
		var r core.JobResult
		if err := json.Unmarshal(parts[i], &r); err != nil {
			return nil, fmt.Errorf("archive: decode %s: %w", ch.Name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func isResultChunk(name string) bool {
	return strings.HasPrefix(name, "result-") && strings.HasSuffix(name, ".json")
}

// Env decodes the environment chunk of a commit.
func (a *Archive) Env(c *Commit) (Environment, error) {
	var env Environment
	b, err := a.PayloadBytes(c, ChunkEnv)
	if err != nil {
		return env, err
	}
	if err := json.Unmarshal(b, &env); err != nil {
		return env, fmt.Errorf("archive: decode %s: %w", ChunkEnv, err)
	}
	return env, nil
}

// Spec decodes the spec chunk of a results commit, or nil if the batch
// carried none (a spec chunk is optional; ad-hoc runs have no spec).
func (a *Archive) Spec(c *Commit) (*core.BenchSpec, error) {
	if !slices.ContainsFunc(c.Chunks, func(ch Chunk) bool { return ch.Name == ChunkSpec }) {
		return nil, nil
	}
	b, err := a.PayloadBytes(c, ChunkSpec)
	if err != nil {
		return nil, err
	}
	spec, err := core.DecodeSpec(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("archive: decode %s: %w", ChunkSpec, err)
	}
	return spec, nil
}

func short(id string) string {
	return id[:min(len(id), 12)]
}
