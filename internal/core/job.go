package core

import (
	"context"
	"errors"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/metrics"
	"graphalytics/internal/platform"
)

// DefaultSLA is the benchmark's service-level agreement: a job must
// generate its output with a makespan of at most one hour (Section 2.3).
// Reproduction experiments usually override this with seconds-scale SLAs
// to match their 10^4-times smaller datasets.
const DefaultSLA = time.Hour

// Status classifies the outcome of a job.
type Status string

// Job outcomes. A job "does not complete successfully" when it breaks the
// SLA or crashes (for instance with insufficient memory).
const (
	StatusOK          Status = "ok"
	StatusSLABreak    Status = "sla-break"
	StatusOOM         Status = "oom"
	StatusFailed      Status = "failed"
	StatusUnsupported Status = "unsupported"
	StatusInvalid     Status = "invalid-output"
	// StatusCanceled marks a job abandoned because the caller's context
	// was canceled before or while it ran (e.g. a RunAll batch whose
	// context was canceled mid-sweep).
	StatusCanceled Status = "canceled"
)

// String returns the status as its wire representation.
func (s Status) String() string { return string(s) }

// Terminal reports whether the status describes a finished job. Every
// defined status is terminal; only the zero value — a job that has not
// been executed (or hit a harness-level error before it could start) — is
// not.
func (s Status) Terminal() bool {
	switch s {
	case StatusOK, StatusSLABreak, StatusOOM, StatusFailed,
		StatusUnsupported, StatusInvalid, StatusCanceled:
		return true
	}
	return false
}

// JobSpec is one benchmark job from the description: an algorithm, a
// dataset, a platform, and the resources of the system under test.
type JobSpec struct {
	Platform  string               `json:"platform"`
	Dataset   string               `json:"dataset"`
	Algorithm algorithms.Algorithm `json:"algorithm"`
	Threads   int                  `json:"threads"`
	Machines  int                  `json:"machines"`
	// MemoryPerMachine bounds engine memory per machine (bytes); zero
	// means unlimited. The stress test sweeps this.
	MemoryPerMachine int64 `json:"memory_per_machine,omitempty"`
	// SLA overrides the session's SLA for this job when non-zero.
	SLA time.Duration `json:"sla,omitempty"`
}

// JobResult is the record of one executed job.
type JobResult struct {
	Spec      JobSpec   `json:"spec"`
	Status    Status    `json:"status"`
	Error     string    `json:"error,omitempty"`
	Timestamp time.Time `json:"timestamp"`

	// Scale and Class describe the dataset actually run.
	Scale float64       `json:"scale"`
	Class metrics.Class `json:"class"`

	// The benchmark's run-time breakdown (Section 2.3): upload time,
	// makespan, and processing time as reported by Granula. The SLA
	// window covers upload plus makespan.
	UploadTime     time.Duration `json:"upload_time"`
	Makespan       time.Duration `json:"makespan"`
	ProcessingTime time.Duration `json:"processing_time"`
	NetworkTime    time.Duration `json:"network_time"`

	// UploadShared marks a job that reused the deployment group's upload
	// instead of performing its own (see Session.RunPlan): UploadTime then
	// records the group's real first upload, amortized across the group,
	// so makespan sums over a shared-upload plan must not double-count it.
	UploadShared bool `json:"upload_shared,omitempty"`

	// Throughput metrics.
	EPS  float64 `json:"eps"`
	EVPS float64 `json:"evps"`

	Rounds     int   `json:"rounds"`
	PeakMemory int64 `json:"peak_memory"`

	// Validated reports whether the output was checked against the
	// reference implementation, and ValidationOK its outcome.
	Validated    bool `json:"validated"`
	ValidationOK bool `json:"validation_ok"`
}

// Completed reports whether the job met the SLA and produced valid output.
func (r JobResult) Completed() bool { return r.Status == StatusOK }

// classify maps an execution error to a job status.
func classify(err error) (Status, string) {
	switch {
	case errors.Is(err, cluster.ErrOutOfMemory):
		return StatusOOM, err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		return StatusSLABreak, err.Error()
	case errors.Is(err, context.Canceled):
		return StatusCanceled, err.Error()
	case errors.Is(err, platform.ErrUnsupported), errors.Is(err, platform.ErrNotDistributed):
		return StatusUnsupported, err.Error()
	default:
		return StatusFailed, err.Error()
	}
}
