package main

// The `graphalytics archive` subcommand family: offline access to the
// content-addressed run archive that `run -spec -archive-dir` and the
// graphalyticsd daemon write. `verify` re-derives every hash in the
// store (chunk digests, Merkle roots, commit IDs, the parent chain)
// and exits nonzero naming the damage; `report` regenerates a commit's
// reports — the Graphalytics-compatible static pages and the paper
// tables — from the sealed record alone; `regress` diffs two archived
// bench snapshots and fails on gated hot-path regressions — the CI
// regression gate is exactly this command.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"graphalytics/internal/archive"
)

func newArchiveFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet(name, flag.ExitOnError)
}

// archiveDirFlag is the -dir flag every archive subcommand shares; the
// default matches scripts/bench.sh's ARCHIVE_DIR.
func archiveDirFlag(fs *flag.FlagSet) *string {
	return fs.String("dir", ".archive", "archive directory")
}

// gateFlags collects repeated -gate regex[=pct] flags.
type gateFlags []string

func (f *gateFlags) String() string { return strings.Join(*f, ",") }

func (f *gateFlags) Set(s string) error {
	*f = append(*f, s)
	return nil
}

func cmdArchive(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("archive: usage: graphalytics archive <verify|head|log|show|commit-bench|report|regress> [flags]")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "verify":
		return archiveVerify(rest)
	case "head":
		return archiveHead(rest)
	case "log":
		return archiveLog(rest)
	case "show":
		return archiveShow(rest)
	case "commit-bench":
		return archiveCommitBench(rest)
	case "report":
		return archiveReport(rest)
	case "regress":
		return archiveRegress(rest)
	default:
		return fmt.Errorf("archive: unknown subcommand %q (want verify, head, log, show, commit-bench, report or regress)", sub)
	}
}

// archiveVerify re-derives every hash in the store and reports each
// problem with the commit and chunk it names; any problem is a nonzero
// exit, so CI and cron jobs can use it as a bit-rot tripwire.
func archiveVerify(args []string) error {
	fs := newArchiveFlagSet("archive verify")
	dir := archiveDirFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, err := archive.Open(*dir)
	if err != nil {
		return err
	}
	rep, err := a.Verify()
	if err != nil {
		return err
	}
	rep.Render(os.Stdout)
	if !rep.OK() {
		return fmt.Errorf("archive verify: %d problem(s), first: %s", len(rep.Problems), rep.Problems[0])
	}
	return nil
}

func archiveHead(args []string) error {
	fs := newArchiveFlagSet("archive head")
	dir := archiveDirFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, err := archive.Open(*dir)
	if err != nil {
		return err
	}
	head, err := a.Head()
	if err != nil {
		return err
	}
	if head == "" {
		return fmt.Errorf("archive head: %s is empty (no commits)", a.Dir())
	}
	fmt.Println(head)
	return nil
}

// archiveLog walks the commit chain from HEAD, newest first.
func archiveLog(args []string) error {
	fs := newArchiveFlagSet("archive log")
	dir := archiveDirFlag(fs)
	limit := fs.Int("n", 0, "print at most n commits (0 = the whole chain)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, err := archive.Open(*dir)
	if err != nil {
		return err
	}
	commits, err := a.Log(*limit)
	if err != nil {
		return err
	}
	for _, c := range commits {
		fmt.Printf("%s  %-7s  %-40s  %d chunk(s)\n", c.ID[:12], c.Kind, c.Name, len(c.Chunks))
	}
	return nil
}

// archiveShow prints one commit record (ID, kind, Merkle root, chunk
// manifest) or, with -chunk, dumps one verified chunk's bytes.
func archiveShow(args []string) error {
	fs := newArchiveFlagSet("archive show")
	dir := archiveDirFlag(fs)
	ref := fs.String("commit", "HEAD", "commit to show: HEAD, a full ID, or a unique prefix")
	chunk := fs.String("chunk", "", "dump this chunk's raw bytes to stdout instead of the record")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, err := archive.Open(*dir)
	if err != nil {
		return err
	}
	c, err := loadRef(a, *ref)
	if err != nil {
		return err
	}
	if *chunk != "" {
		b, err := a.PayloadBytes(c, *chunk)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}
	fmt.Printf("commit %s\nkind   %s\nname   %s\nmerkle %s\nparent %s\n", c.ID, c.Kind, c.Name, c.Root, orDash(c.Parent))
	for _, ch := range c.Chunks {
		fmt.Printf("  %s  %8d  %s\n", ch.SHA256[:min(len(ch.SHA256), 12)], ch.Size, ch.Name)
	}
	return nil
}

// archiveCommitBench seals a bench.sh snapshot into the archive and
// prints the commit ID — the one line scripts capture to chain
// BENCH_<date>.json derivation off the archived copy.
func archiveCommitBench(args []string) error {
	fs := newArchiveFlagSet("archive commit-bench")
	dir := archiveDirFlag(fs)
	name := fs.String("name", "", "commit name, e.g. bench/2026-08-07 (required)")
	in := fs.String("in", "", "bench snapshot JSON file (default: stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("archive commit-bench: -name is required")
	}
	var data []byte
	var err error
	if *in == "" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(*in)
	}
	if err != nil {
		return err
	}
	a, err := archive.Open(*dir)
	if err != nil {
		return err
	}
	c, err := a.CommitBench(*name, data)
	if err != nil {
		return err
	}
	fmt.Println(c.ID)
	return nil
}

// archiveReport regenerates the reports of a results commit from its
// sealed record: the static Graphalytics report (index.html +
// benchmark-results.js) and tables.txt — the paper tables registered for
// the commit's spec name, else the job table.
func archiveReport(args []string) error {
	fs := newArchiveFlagSet("archive report")
	dir := archiveDirFlag(fs)
	ref := fs.String("commit", "HEAD", "results commit to render")
	out := fs.String("out", "report", "directory to write index.html, benchmark-results.js and tables.txt into")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, err := archive.Open(*dir)
	if err != nil {
		return err
	}
	if err := a.WriteReportDir(*ref, *out); err != nil {
		return err
	}
	fmt.Printf("report written to %s (open %s/index.html; text tables in %s/tables.txt)\n", *out, *out, *out)
	return nil
}

// archiveRegress diffs the bench snapshot at -commit against a
// baseline — by default the commit's parent, or -baseline: another
// archive directory (its HEAD) or a commit ref in the same archive.
// Gated metrics (-gate regex[=pct]) that regress past their threshold
// make the command exit nonzero; that exit status is the CI gate.
func archiveRegress(args []string) error {
	fs := newArchiveFlagSet("archive regress")
	dir := archiveDirFlag(fs)
	ref := fs.String("commit", "HEAD", "bench commit to judge")
	baseline := fs.String("baseline", "", "baseline: an archive directory (its HEAD) or a commit ref here (default: the parent of -commit)")
	threshold := fs.Float64("threshold", 10, "default gate threshold in percent")
	all := fs.Bool("all", false, "print ungated metrics too, not just gated ones")
	var gates gateFlags
	fs.Var(&gates, "gate", "gate as regex[=pct] over metric keys like BenchmarkX/ns; repeatable")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(gates) == 0 {
		return fmt.Errorf("archive regress: at least one -gate is required (e.g. -gate 'EngineExecute/.*/CDLP/ns')")
	}
	parsed := make([]archive.Gate, 0, len(gates))
	for _, g := range gates {
		pg, err := archive.ParseGate(g, *threshold)
		if err != nil {
			return err
		}
		parsed = append(parsed, pg)
	}

	a, err := archive.Open(*dir)
	if err != nil {
		return err
	}
	latest, err := a.BenchMetricsAt(*ref)
	if err != nil {
		return err
	}
	base, baseDesc, err := baselineMetrics(a, *ref, *baseline)
	if err != nil {
		return err
	}

	fmt.Printf("regress: %s vs baseline %s\n", *ref, baseDesc)
	rep := archive.Regress(base, latest, parsed)
	rep.Render(os.Stdout, !*all)
	if !rep.OK() {
		return fmt.Errorf("archive regress: %d gated regression(s)", rep.Regressions)
	}
	return nil
}

// baselineMetrics resolves the -baseline flag: an archive directory
// (use its HEAD), a commit ref in a, or — empty — the parent of the
// judged commit.
func baselineMetrics(a *archive.Archive, ref, baseline string) (map[string]float64, string, error) {
	if baseline == "" {
		c, err := loadRef(a, ref)
		if err != nil {
			return nil, "", err
		}
		if c.Parent == "" {
			return nil, "", fmt.Errorf("archive regress: commit %s has no parent; pass -baseline", c.ID[:12])
		}
		m, err := a.BenchMetricsAt(c.Parent)
		return m, "parent " + c.Parent[:12], err
	}
	if fi, err := os.Stat(baseline); err == nil && fi.IsDir() {
		b, err := archive.Open(baseline)
		if err != nil {
			return nil, "", err
		}
		m, err := b.BenchMetricsAt("HEAD")
		return m, baseline + " (HEAD)", err
	}
	m, err := a.BenchMetricsAt(baseline)
	return m, baseline, err
}

// loadRef resolves a ref (HEAD, full ID, unique prefix) and loads its
// commit.
func loadRef(a *archive.Archive, ref string) (*archive.Commit, error) {
	id, err := a.Resolve(ref)
	if err != nil {
		return nil, err
	}
	return a.Load(id)
}
