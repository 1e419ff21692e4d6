// Command pmevo-vet runs pmevo's contract-enforcing static-analysis
// suite (internal/analysis) over the module: the syntactic analyzers —
// determinism (detrand), map-iteration order (mapiter), context flow
// (ctxflow), fingerprint mutation seams (fpguard), cache-key discipline
// (cachekey) — and the flow-sensitive concurrency-contract analyzers on
// the CFG/dataflow core — scratch escape (scratchescape), atomic access
// hygiene (atomichygiene), goroutine joins (goroutinejoin), cache-load
// error flow (errflow) — plus hygiene checks on //pmevo:allow
// suppressions.
//
// Usage:
//
//	pmevo-vet [flags] [patterns]
//
// Patterns select which packages are loaded and analyzed: "./..."
// (default) covers the module; "./internal/evo" restricts to one
// directory; a trailing "/..." matches a subtree. A restrictive pattern
// loads only the matching packages plus their module-internal imports —
// fast enough for pre-commit use — and whole-module analyzers
// (cachekey's cross-package absence checks) stand down on such partial
// loads rather than report on packages they cannot see. Findings in
// packages pulled in only as dependencies are filtered from the report.
//
// Exit status: 0 when no unsuppressed finding is reported, 1 when at
// least one is, 2 on load or usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"pmevo/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings and suppressions as JSON (for CI artifacts)")
	listAllows := flag.Bool("list-allows", false, "audit mode: dump every pmevo:allow suppression with its location and reason, then exit")
	dir := flag.String("C", ".", "directory inside the module to analyze")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	mod, err := analysis.LoadPatterns(*dir, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmevo-vet: %v\n", err)
		os.Exit(2)
	}
	findings, allows, err := analysis.Run(mod, analysis.Suite())
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmevo-vet: %v\n", err)
		os.Exit(2)
	}
	findings = filterFindings(findings, patterns)

	if *listAllows {
		if *jsonOut {
			emitJSON(mod.Path, nil, allows)
			return
		}
		for _, a := range allows {
			fmt.Println(a)
		}
		fmt.Fprintf(os.Stderr, "pmevo-vet: %d suppression(s)\n", len(allows))
		return
	}

	unsuppressed := analysis.Unsuppressed(findings)
	if *jsonOut {
		emitJSON(mod.Path, findings, allows)
	} else {
		for _, f := range unsuppressed {
			fmt.Println(f)
		}
	}
	if len(unsuppressed) > 0 {
		fmt.Fprintf(os.Stderr, "pmevo-vet: %d finding(s)\n", len(unsuppressed))
		os.Exit(1)
	}
}

// filterFindings keeps findings under the directories the patterns
// name. Patterns mirror the go tool's: "./..." everything, "./dir" one
// directory, "./dir/..." a subtree.
func filterFindings(findings []analysis.Finding, patterns []string) []analysis.Finding {
	matchAll := false
	var exact, subtree []string
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		if pat == "..." || pat == "" {
			matchAll = true
			continue
		}
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			subtree = append(subtree, rest)
			continue
		}
		exact = append(exact, strings.TrimSuffix(pat, "/"))
	}
	if matchAll {
		return findings
	}
	var out []analysis.Finding
	for _, f := range findings {
		dir := "."
		if i := strings.LastIndexByte(f.File, '/'); i >= 0 {
			dir = f.File[:i]
		}
		keep := false
		for _, d := range exact {
			if dir == d {
				keep = true
			}
		}
		for _, d := range subtree {
			if dir == d || strings.HasPrefix(dir, d+"/") {
				keep = true
			}
		}
		if keep {
			out = append(out, f)
		}
	}
	return out
}

func emitJSON(modPath string, findings []analysis.Finding, allows []analysis.Allow) {
	type payload struct {
		Module       string             `json:"module"`
		Findings     []analysis.Finding `json:"findings"`
		Unsuppressed int                `json:"unsuppressed"`
		Allows       []analysis.Allow   `json:"allows"`
	}
	if findings == nil {
		findings = []analysis.Finding{}
	}
	if allows == nil {
		allows = []analysis.Allow{}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(payload{
		Module:       modPath,
		Findings:     findings,
		Unsuppressed: len(analysis.Unsuppressed(findings)),
		Allows:       allows,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "pmevo-vet: %v\n", err)
		os.Exit(2)
	}
}
