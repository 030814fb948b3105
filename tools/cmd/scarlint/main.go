// Command scarlint runs SCAR's custom static analyzers over a package
// tree and fails when any invariant is violated:
//
//	atomicsafe — sync/atomic'd variables are atomic everywhere;
//	             atomic-/lock-bearing structs are never copied by value
//	ctxfirst   — context.Context first in every signature, never in a
//	             struct
//	errshape   — internal/serve routes every non-200 through writeError
//	goleak     — every go statement outside package main has a provably
//	             bounded lifetime (WaitGroup.Done, ctx.Done wait, or a
//	             channel completion signal)
//	hotalloc   — //scar:hotpath functions are allocation-free, checked
//	             against the module call graph and the compiler's
//	             -gcflags=-m=2 escape facts
//	lockorder  — consistent mutex acquisition order; no lock held
//	             across blocking operations; no recursive acquisition
//	nodeterm   — no wall clocks, global RNG streams, racy selects, or
//	             order-sensitive map iteration in the replay-contract
//	             packages (internal/core, internal/online,
//	             internal/eval)
//	noexit     — no os.Exit / log.Fatal* outside package main
//
// Usage (from the tools module; the main module stays dependency-free):
//
//	cd tools && go run ./cmd/scarlint -dir .. ./...
//
// Flags: -json emits machine-readable findings; -github additionally
// prints GitHub Actions ::error annotations so findings land on the
// PR diff; -suppressions switches to an audit listing every //scar:
// comment with its key, reason, and commit age, failing when a
// suppression's reason is shorter than 10 characters.
//
// Genuine exceptions carry `//scar:<analyzer> <reason>` comments;
// scarlint verifies every suppression names a real analyzer, carries a
// reason, and actually silences a finding. `//scar:hotpath` is an
// annotation, not a suppression: it marks a function for hotalloc.
// Only production sources are analyzed (test files may use wall
// clocks, globals, and goroutines freely). Exit status: 0 clean, 1
// findings, 2 operational error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"example.com/scar/tools/internal/lint"
	"example.com/scar/tools/internal/lint/loader"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	dir := flag.String("dir", ".", "directory to resolve package patterns in (the module under analysis)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array (file/line/col/analyzer/message/suppression_key)")
	github := flag.Bool("github", false, "also emit GitHub Actions ::error annotations")
	audit := flag.Bool("suppressions", false, "audit //scar: suppressions (key, reason, age) instead of linting; exit 1 on reasons shorter than 10 characters")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: scarlint [-dir module] [-json] [-github] [-suppressions] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scarlint:", err)
		return 2
	}

	// Findings print with paths relative to the analyzed module when
	// possible, so output is stable across checkouts.
	base, err := filepath.Abs(*dir)
	if err != nil {
		base = ""
	}
	rel := func(path string) string {
		if base != "" {
			if r, err := filepath.Rel(base, path); err == nil && filepath.IsLocal(r) {
				return r
			}
		}
		return path
	}

	if *audit {
		return auditSuppressions(pkgs, *dir, rel, *jsonOut)
	}

	facts, err := loader.EscapeDiagnostics(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scarlint:", err)
		return 2
	}
	ctx := &lint.Context{All: pkgs, Escapes: facts}

	// suppression_key lets tooling write the right //scar: comment.
	keys := map[string]string{}
	for _, a := range lint.All() {
		k := a.SuppressKey
		if k == "" {
			k = a.Name
		}
		keys[a.Name] = k
	}

	type finding struct {
		File           string `json:"file"`
		Line           int    `json:"line"`
		Col            int    `json:"col"`
		Analyzer       string `json:"analyzer"`
		Message        string `json:"message"`
		SuppressionKey string `json:"suppression_key"`
	}
	var all []finding
	for _, pkg := range pkgs {
		findings, err := lint.CheckWith(ctx, pkg, lint.All())
		if err != nil {
			fmt.Fprintln(os.Stderr, "scarlint:", err)
			return 2
		}
		for _, f := range findings {
			all = append(all, finding{
				File:           rel(f.Pos.Filename),
				Line:           f.Pos.Line,
				Col:            f.Pos.Column,
				Analyzer:       f.Analyzer,
				Message:        f.Message,
				SuppressionKey: keys[f.Analyzer],
			})
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if all == nil {
			all = []finding{}
		}
		if err := enc.Encode(all); err != nil {
			fmt.Fprintln(os.Stderr, "scarlint:", err)
			return 2
		}
	} else {
		for _, f := range all {
			fmt.Printf("%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if *github {
		for _, f := range all {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=scarlint %s::%s\n",
				f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(all) > 0 {
		fmt.Fprintf(os.Stderr, "scarlint: %d finding(s)\n", len(all))
		return 1
	}
	return 0
}

// auditSuppressions lists every //scar: comment with its key, reason,
// and the commit that introduced it (via git blame), and fails when a
// suppression's reason is shorter than 10 characters. //scar:hotpath
// annotations are listed but exempt from the length rule — they mark
// a contract rather than excuse a finding.
func auditSuppressions(pkgs []*lint.Package, dir string, rel func(string) string, jsonOut bool) int {
	type entry struct {
		File       string `json:"file"`
		Line       int    `json:"line"`
		Key        string `json:"key"`
		Annotation bool   `json:"annotation"`
		Reason     string `json:"reason"`
		Commit     string `json:"commit"`
		Age        string `json:"age"`
	}
	var entries []entry
	for _, pkg := range pkgs {
		for _, s := range lint.Suppressions(pkg) {
			commit, age := blameAge(dir, s.Pos.Filename, s.Pos.Line)
			entries = append(entries, entry{
				File:       rel(s.Pos.Filename),
				Line:       s.Pos.Line,
				Key:        s.Key,
				Annotation: s.Annotation,
				Reason:     s.Reason,
				Commit:     commit,
				Age:        age,
			})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].File != entries[j].File {
			return entries[i].File < entries[j].File
		}
		return entries[i].Line < entries[j].Line
	})

	bad := 0
	for _, e := range entries {
		if !e.Annotation && len(e.Reason) < 10 {
			bad++
		}
	}
	if jsonOut {
		if entries == nil {
			entries = []entry{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(entries); err != nil {
			fmt.Fprintln(os.Stderr, "scarlint:", err)
			return 2
		}
	} else {
		for _, e := range entries {
			kind := "suppression"
			if e.Annotation {
				kind = "annotation"
			}
			fmt.Printf("%s:%d: //scar:%s (%s, %s, %s) %s\n", e.File, e.Line, e.Key, kind, e.Commit, e.Age, e.Reason)
		}
		fmt.Printf("%d //scar: comment(s)\n", len(entries))
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "scarlint: %d suppression(s) with a reason shorter than 10 characters — say why the exception is safe\n", bad)
		return 1
	}
	return 0
}

// blameAge resolves the commit that introduced a line and how long
// ago that was. Best-effort: outside a git checkout it reports
// unknown, and an uncommitted line reports as such.
func blameAge(dir, file string, line int) (commit, age string) {
	cmd := exec.Command("git", "blame", "--porcelain", "-L", fmt.Sprintf("%d,%d", line, line), "--", file)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "unknown", "unknown"
	}
	sha, when := "", time.Time{}
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		l := sc.Text()
		switch {
		case sha == "" && len(l) >= 40:
			sha = l[:40]
		case strings.HasPrefix(l, "committer-time "):
			if sec, err := strconv.ParseInt(strings.TrimPrefix(l, "committer-time "), 10, 64); err == nil {
				when = time.Unix(sec, 0)
			}
		}
	}
	if sha == "" || strings.Count(sha, "0") == len(sha) {
		return "uncommitted", "0d"
	}
	if when.IsZero() {
		return sha[:12], "unknown"
	}
	days := int(time.Since(when).Hours() / 24)
	if days < 0 {
		days = 0
	}
	return sha[:12], fmt.Sprintf("%s (%dd)", when.UTC().Format("2006-01-02"), days)
}
