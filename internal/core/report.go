package core

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Report is a rendered experiment outcome: the rows of one of the paper's
// figures or tables, regenerated from this reproduction's measurements.
type Report struct {
	// ID names the paper artifact, e.g. "fig4" or "table10".
	ID string
	// Title is the human-readable heading.
	Title string
	// Columns and Rows hold the table body.
	Columns []string
	Rows    [][]string
	// Notes carries caveats and derived observations.
	Notes []string
}

// Render writes the report as an aligned text table.
func (r *Report) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		return b.String()
	}
	if _, err := fmt.Fprintln(w, line(r.Columns)); err != nil {
		return err
	}
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// JobTable renders results as one row per job, in the given order, with
// the paper's status markers and the run-time breakdown — the report of a
// run that is no paper artifact.
func JobTable(id, title string, results []JobResult) *Report {
	rep := &Report{
		ID:      id,
		Title:   title,
		Columns: []string{"platform", "dataset", "algorithm", "t", "m", "status", "upload", "Tproc"},
		Notes:   []string{"upload times marked * were amortized: the job reused its deployment group's shared upload"},
	}
	for _, r := range results {
		upload := fmtDuration(r.UploadTime)
		if r.UploadShared {
			upload += "*"
		}
		rep.Rows = append(rep.Rows, []string{
			r.Spec.Platform, r.Spec.Dataset, string(r.Spec.Algorithm),
			fmt.Sprint(r.Spec.Threads), fmt.Sprint(r.Spec.Machines),
			string(r.Status), upload, cell(r),
		})
	}
	return rep
}

// cell formats a job result for a report table: the processing time on
// success, or the paper's failure markers ("F" for a crash or SLA break,
// "M" for out of memory, "N/A" for an unsupported algorithm).
func cell(r JobResult) string {
	switch r.Status {
	case StatusOK:
		return fmtDuration(r.ProcessingTime)
	case StatusOOM:
		return "M"
	case StatusUnsupported:
		return "N/A"
	default:
		return "F"
	}
}

// fmtDuration renders a duration compactly with three significant-ish
// digits, like the paper's axes (10ms ... 30m).
func fmtDuration(d time.Duration) string {
	switch {
	case d <= 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fus", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	case d < time.Minute:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return fmt.Sprintf("%.1fm", d.Minutes())
	}
}

// fmtRate renders a throughput value like "3.2M/s".
func fmtRate(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG/s", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM/s", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2fk/s", v/1e3)
	default:
		return fmt.Sprintf("%.1f/s", v)
	}
}

// fmtBytes renders a byte count exactly, in the largest binary unit that
// divides it ("2 MiB", "200 KiB", "1500 B").
func fmtBytes(n int64) string {
	switch {
	case n%(1<<20) == 0:
		return fmt.Sprintf("%d MiB", n>>20)
	case n%(1<<10) == 0:
		return fmt.Sprintf("%d KiB", n>>10)
	default:
		return fmt.Sprintf("%d B", n)
	}
}
