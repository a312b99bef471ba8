package archive

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// Problem is one integrity failure found by Verify, naming the exact
// commit — and, for chunk damage, the exact chunk — that no longer
// matches its recorded hash.
type Problem struct {
	// Commit is the ID of the commit the problem was found in (or
	// reachable from, for chain breaks).
	Commit string `json:"commit"`
	// Chunk names the damaged chunk inside the batch ("" for problems
	// with the commit record or chain itself).
	Chunk string `json:"chunk,omitempty"`
	// Detail says what failed: the expected and actual digest, a missing
	// file, a size mismatch.
	Detail string `json:"detail"`
}

// String renders the problem as one line for CLI output.
func (p Problem) String() string {
	if p.Chunk != "" {
		return fmt.Sprintf("commit %s chunk %s: %s", short(p.Commit), p.Chunk, p.Detail)
	}
	return fmt.Sprintf("commit %s: %s", short(p.Commit), p.Detail)
}

func (p *Problem) err() error { return errors.New("archive: " + p.String()) }

// VerifyReport is the outcome of a full offline re-derivation of the
// archive: counts of what was checked, and every problem found.
type VerifyReport struct {
	Commits  int       `json:"commits"`
	Chunks   int       `json:"chunks"`
	Bytes    int64     `json:"bytes"`
	Problems []Problem `json:"problems,omitempty"`
}

// OK reports whether the archive verified clean.
func (r *VerifyReport) OK() bool { return len(r.Problems) == 0 }

// Render writes the report in CLI form: one line per problem, then a
// summary line.
func (r *VerifyReport) Render(w io.Writer) {
	for _, p := range r.Problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
	status := "ok"
	if !r.OK() {
		status = fmt.Sprintf("CORRUPT (%d problems)", len(r.Problems))
	}
	fmt.Fprintf(w, "archive %s: %d commits, %d chunks, %d bytes verified\n",
		status, r.Commits, r.Chunks, r.Bytes)
}

// Verify re-derives every hash in the archive from the bytes on disk:
// each commit record must hash to its own ID (which seals the parent
// chain, since the parent ID is part of those bytes), each commit's
// Merkle root must re-derive from its chunk digests, and the commit's
// pack must hold exactly its chunks (see verifyPack). It checks
// every commit file in the store — not just the chain from HEAD — then
// walks the chain to catch missing parents, cycles, and a HEAD that
// points nowhere. All problems are collected rather than failing fast,
// so one report names every damaged chunk.
func (a *Archive) Verify() (*VerifyReport, error) {
	rep := &VerifyReport{}
	entries, err := os.ReadDir(a.dir + "/commits")
	if err != nil {
		return nil, fmt.Errorf("archive: list commits: %w", err)
	}
	commits := make(map[string]*Commit)
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok {
			continue
		}
		rep.Commits++
		c := a.verifyCommit(id, rep)
		if c != nil {
			commits[id] = c
		}
	}
	a.verifyChain(rep, commits)
	slices.SortStableFunc(rep.Problems, func(p, q Problem) int {
		return cmp.Or(strings.Compare(p.Commit, q.Commit), strings.Compare(p.Chunk, q.Chunk))
	})
	return rep, nil
}

// verifyCommit re-derives one commit: record hash, Merkle root and
// pack. Returns the decoded commit (nil when unreadable).
func (a *Archive) verifyCommit(id string, rep *VerifyReport) *Commit {
	b, err := os.ReadFile(a.commitPath(id))
	if err != nil {
		rep.Problems = append(rep.Problems, Problem{Commit: id, Detail: "commit record unreadable: " + errString(err)})
		return nil
	}
	if got := shaHex(b); got != id {
		rep.Problems = append(rep.Problems, Problem{Commit: id,
			Detail: fmt.Sprintf("commit record tampered: bytes hash to %s", short(got))})
		// Keep going: the decoded contents still tell us which chunks to
		// check, and the damage should be named precisely.
	}
	var c Commit
	if err := json.Unmarshal(b, &c); err != nil {
		rep.Problems = append(rep.Problems, Problem{Commit: id, Detail: "commit record undecodable: " + errString(err)})
		return nil
	}
	c.ID = id

	leaves := make([][]byte, 0, len(c.Chunks))
	for _, ch := range c.Chunks {
		raw, err := hex.DecodeString(ch.SHA256)
		if err != nil || len(raw) != sha256.Size {
			rep.Problems = append(rep.Problems, Problem{Commit: id, Chunk: ch.Name,
				Detail: fmt.Sprintf("recorded digest %q is not a SHA-256", ch.SHA256)})
			continue
		}
		leaves = append(leaves, raw)
	}
	if root := hex.EncodeToString(merkleRoot(leaves)); root != c.Root {
		rep.Problems = append(rep.Problems, Problem{Commit: id,
			Detail: fmt.Sprintf("merkle root mismatch: recorded %s, re-derived %s", short(c.Root), short(root))})
	}
	a.verifyPack(&c, rep)
	return &c
}

// verifyPack checks c's chunks against its pack: each must lie inside
// it where the recorded sizes put it and hash to its recorded digest,
// and the pack must end where the last chunk does.
func (a *Archive) verifyPack(c *Commit, rep *VerifyReport) {
	pack, err := a.readPack(c.ID)
	if err != nil {
		rep.Problems = append(rep.Problems, Problem{Commit: c.ID, Detail: "pack unreadable: " + errString(err)})
		return
	}
	rep.Bytes += int64(len(pack))
	parts, p := split(c, pack)
	if p != nil {
		rep.Problems = append(rep.Problems, *p)
	}
	end := 0
	for i, b := range parts {
		rep.Chunks++
		end += len(b)
		if p := check(c, c.Chunks[i], b); p != nil {
			rep.Problems = append(rep.Problems, *p)
		}
	}
	if p == nil && end < len(pack) {
		rep.Problems = append(rep.Problems, Problem{Commit: c.ID,
			Detail: fmt.Sprintf("pack grown: %d bytes past its last chunk", len(pack)-end)})
	}
}

// verifyChain walks HEAD's parent chain over the already-verified
// commits, flagging a dangling HEAD, missing parents, and cycles.
func (a *Archive) verifyChain(rep *VerifyReport, commits map[string]*Commit) {
	head, err := a.Head()
	if err != nil {
		rep.Problems = append(rep.Problems, Problem{Detail: "HEAD unreadable: " + errString(err)})
		return
	}
	if head == "" {
		if rep.Commits > 0 {
			rep.Problems = append(rep.Problems, Problem{Detail: fmt.Sprintf("no HEAD but %d commits present", rep.Commits)})
		}
		return
	}
	seen := make(map[string]bool)
	id := head
	for id != "" {
		if seen[id] {
			rep.Problems = append(rep.Problems, Problem{Commit: id, Detail: "commit chain cycles"})
			return
		}
		seen[id] = true
		c, ok := commits[id]
		if !ok {
			detail := "parent chain broken: commit record missing"
			if id == head {
				detail = "HEAD points at missing commit"
			}
			rep.Problems = append(rep.Problems, Problem{Commit: id, Detail: detail})
			return
		}
		id = c.Parent
	}
}

func errString(err error) string {
	var pe *os.PathError
	if errors.As(err, &pe) {
		return pe.Op + ": " + pe.Err.Error()
	}
	return err.Error()
}
