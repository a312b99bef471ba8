package archive

import (
	"os/exec"
	"runtime"
	"strings"
	"sync"
)

// HarnessVersion identifies the harness build that produced a commit.
// Bump it when the measurement pipeline changes in a way that makes
// numbers incomparable across archives.
const HarnessVersion = "0.10"

// Environment records where a batch was measured: the toolchain, the
// machine shape, and (best effort) the harness source revision. It
// deliberately contains nothing volatile — no timestamps, no hostnames,
// no entropy — so re-running the same spec on the same machine and
// source tree produces a byte-identical environment chunk and therefore
// a byte-identical commit.
type Environment struct {
	Harness string `json:"harness"`
	Version string `json:"version"`
	Go      string `json:"go"`
	OS      string `json:"os"`
	Arch    string `json:"arch"`
	CPUs    int    `json:"cpus"`
	// Git is the source revision (git rev-parse HEAD), empty when the
	// process runs outside a work tree.
	Git string `json:"git,omitempty"`
}

var (
	envOnce sync.Once
	envVal  Environment
)

// CaptureEnv captures the process environment once and returns the same
// value for the process lifetime, so every commit in one run embeds
// identical environment bytes.
func CaptureEnv() Environment {
	envOnce.Do(func() {
		envVal = Environment{
			Harness: "graphalytics-go",
			Version: HarnessVersion,
			Go:      runtime.Version(),
			OS:      runtime.GOOS,
			Arch:    runtime.GOARCH,
			CPUs:    runtime.NumCPU(),
			Git:     gitRevision(),
		}
	})
	return envVal
}

// gitRevision resolves the source revision, best effort: an archive
// must stay writable from deployments without git or a work tree.
func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
