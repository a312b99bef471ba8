package service

import (
	"net/http"

	"graphalytics/internal/archive"
)

// This file serves the daemon's run archive over HTTP: the sealed
// commit record, the Graphalytics-compatible report (static HTML +
// benchmark-results.js), and raw verified chunks — everything a client
// needs to verify a published run offline against the Merkle root the
// final SSE event announced.

// archiveCommit resolves {root} against the archive, answering the
// right error when the archive is off or the commit unknown. A full
// commit ID is required: prefixes are a CLI convenience, not a stable
// public capability.
func (s *Service) archiveCommit(w http.ResponseWriter, r *http.Request) (*archive.Commit, bool) {
	if s.archive == nil {
		writeError(w, http.StatusNotFound, "archive not enabled (start the daemon with -archive-dir)")
		return nil, false
	}
	root := r.PathValue("root")
	if !archive.IsCommitID(root) {
		writeError(w, http.StatusBadRequest, "archive commit ID must be 64 hex digits")
		return nil, false
	}
	c, err := s.archive.Load(root)
	if err != nil {
		writeError(w, http.StatusNotFound, "unknown archive commit")
		return nil, false
	}
	return c, true
}

// handleArchiveCommit serves the commit record itself. The body is the
// standard JSON rendering plus the ID; clients verifying offline
// should fetch the chunks and re-derive the hashes, exactly as
// `graphalytics archive verify` does.
func (s *Service) handleArchiveCommit(w http.ResponseWriter, r *http.Request) {
	c, ok := s.archiveCommit(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, struct {
		ID string `json:"id"`
		*archive.Commit
	}{ID: c.ID, Commit: c})
}

// handleArchiveReport serves the static report page; it loads
// benchmark-results.js relative to its own URL, so the pair works from
// this endpoint exactly as from an exported report directory.
func (s *Service) handleArchiveReport(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.archiveCommit(w, r); !ok {
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = archive.WriteReportHTML(w)
}

// handleArchiveReportJS renders the commit into the Graphalytics
// benchmark-results.js data file.
func (s *Service) handleArchiveReportJS(w http.ResponseWriter, r *http.Request) {
	c, ok := s.archiveCommit(w, r)
	if !ok {
		return
	}
	rep, err := s.archive.BuildReport(c)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/javascript; charset=utf-8")
	_ = archive.WriteReportJS(w, rep)
}

// handleArchiveChunk serves one chunk's raw bytes by its logical name
// inside the commit, verified against the recorded digest before a
// byte leaves the store.
func (s *Service) handleArchiveChunk(w http.ResponseWriter, r *http.Request) {
	c, ok := s.archiveCommit(w, r)
	if !ok {
		return
	}
	b, err := s.archive.PayloadBytes(c, r.PathValue("name"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}
