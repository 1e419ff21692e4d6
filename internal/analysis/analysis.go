// Package analysis is pmevo's contract-enforcing static-analysis
// suite: project-specific analyzers over go/parser + go/types (standard
// library only) that turn the invariants every fast path in this repo
// is pinned against — fixed seed ⇒ bit-identical results, fingerprint
// caches invalidated on every mutation, ctx-first cancellation,
// content-keyed cache spills — into compile-time diagnostics with named
// culprits, instead of golden-test failures after the fact.
//
// Two layers share the framework. The syntactic analyzers (detrand,
// mapiter, ctxflow, fpguard, cachekey) pattern-match the typed AST
// directly. The concurrency-contract analyzers (scratchescape,
// atomichygiene, goroutinejoin, errflow) sit on a flow-sensitive core —
// a per-function control-flow graph (cfg.go) with a forward
// origin-tracking dataflow pass over it (dataflow.go) — so they can
// answer path questions ("is this scratch released on every path to
// return?", "is this error checked before the function exits?") rather
// than only shape questions.
//
// The suite is driven by cmd/pmevo-vet and by the self-check test in
// this package, which asserts the module itself stays clean. Deliberate
// exceptions are annotated in the source with a mandatory reason:
//
//	//pmevo:allow <analyzer>[,<analyzer>...] -- <why>
//
// An allow comment suppresses findings of the named analyzers on its
// own line and on the line directly below it (so it works both as a
// trailing comment and as a line of its own above the finding). A
// suppression without a reason, naming an unknown analyzer, or matching
// no finding is itself reported (analyzer name "allow"), so the
// exception list cannot rot.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"sort"
	"strings"

	"pmevo/internal/engine"
)

// An Analyzer checks one contract over the whole module. Analyzers
// scope themselves (by package name, import path, or file) and report
// findings through the Reporter.
type Analyzer interface {
	// Name is the short identifier used in findings and allow comments.
	Name() string
	// Doc is a one-paragraph description of the enforced contract.
	Doc() string
	// Run reports every violation found in the module.
	Run(m *Module, r Reporter)
}

// Reporter collects findings during an analyzer run.
type Reporter interface {
	// Reportf records a finding at pos.
	Reportf(pos token.Pos, format string, args ...any)
	// ReportRangef records a finding spanning [pos, end) — the form
	// analyzers prefer when they hold the offending node, so the JSON
	// artifact carries reviewable ranges.
	ReportRangef(pos, end token.Pos, format string, args ...any)
}

// Finding is one diagnostic: a contract violation at a position.
type Finding struct {
	// Analyzer names the reporting analyzer ("allow" for suppression
	// hygiene findings produced by the framework itself).
	Analyzer string `json:"analyzer"`
	// File is the path relative to the module root when possible.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// EndLine/EndCol delimit the offending node when the analyzer
	// reported a range (0 otherwise).
	EndLine int `json:"end_line,omitempty"`
	EndCol  int `json:"end_col,omitempty"`
	// Snippet is the source line the finding starts on, whitespace
	// trimmed, so the JSON artifact reads without a checkout.
	Snippet string `json:"snippet,omitempty"`
	// Message states the violation.
	Message string `json:"message"`
	// Suppressed reports whether a pmevo:allow annotation covers the
	// finding; suppressed findings do not fail pmevo-vet.
	Suppressed bool `json:"suppressed,omitempty"`
	// AllowReason is the suppressing annotation's reason, if any.
	AllowReason string `json:"allow_reason,omitempty"`
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
	if f.Suppressed {
		s += fmt.Sprintf(" (suppressed: %s)", f.AllowReason)
	}
	return s
}

// Allow is one parsed //pmevo:allow annotation.
type Allow struct {
	// Analyzers are the analyzer names the annotation suppresses.
	Analyzers []string `json:"analyzers"`
	// Reason is the mandatory justification after " -- ".
	Reason string `json:"reason"`
	File   string `json:"file"`
	Line   int    `json:"line"`
	// Used reports whether the annotation suppressed at least one
	// finding in the run it was collected by.
	Used bool `json:"used"`
}

func (a Allow) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", a.File, a.Line, strings.Join(a.Analyzers, ","), a.Reason)
}

const allowPrefix = "pmevo:allow"

// reporter implements Reporter for one analyzer over one module.
type reporter struct {
	name     string
	m        *Module
	findings *[]Finding
}

func (r *reporter) Reportf(pos token.Pos, format string, args ...any) {
	r.ReportRangef(pos, token.NoPos, format, args...)
}

func (r *reporter) ReportRangef(pos, end token.Pos, format string, args ...any) {
	p := r.m.Fset.Position(pos)
	f := Finding{
		Analyzer: r.name,
		File:     r.m.relFile(p.Filename),
		Line:     p.Line,
		Col:      p.Column,
		Snippet:  r.m.sourceLine(p.Filename, p.Line),
		Message:  fmt.Sprintf(format, args...),
	}
	if end.IsValid() {
		e := r.m.Fset.Position(end)
		f.EndLine, f.EndCol = e.Line, e.Column
	}
	*r.findings = append(*r.findings, f)
}

// relFile renders a file path relative to the module root for stable,
// copy-pasteable findings.
func (m *Module) relFile(path string) string {
	if rest, ok := strings.CutPrefix(path, m.Root+"/"); ok {
		return rest
	}
	return path
}

// sourceLine returns the 1-based line of the file, trimmed, from a
// per-module cache; analyzers run concurrently, so the cache locks.
func (m *Module) sourceLine(filename string, line int) string {
	m.linesMu.Lock()
	defer m.linesMu.Unlock()
	if m.lines == nil {
		m.lines = map[string][]string{}
	}
	lines, ok := m.lines[filename]
	if !ok {
		data, err := os.ReadFile(filename)
		if err == nil {
			lines = strings.Split(string(data), "\n")
		}
		m.lines[filename] = lines
	}
	if line < 1 || line > len(lines) {
		return ""
	}
	return strings.TrimSpace(lines[line-1])
}

// Suite returns the full analyzer suite in reporting order: the five
// syntactic contract analyzers and the four flow-sensitive
// concurrency-contract analyzers built on the CFG/dataflow core.
func Suite() []Analyzer {
	return []Analyzer{
		&detrand{},
		&mapiter{},
		&ctxflow{},
		&fpguard{},
		&cachekey{},
		&scratchescape{},
		&atomichygiene{},
		&goroutinejoin{},
		&errflow{},
	}
}

// Run executes the analyzers over the module, applies pmevo:allow
// suppressions, and checks suppression hygiene. Findings come back
// sorted by position; allows carry their post-run Used state.
func Run(m *Module, analyzers []Analyzer) ([]Finding, []Allow, error) {
	known := map[string]bool{"allow": true}
	for _, a := range analyzers {
		known[a.Name()] = true
	}
	allows, allowFindings := collectAllows(m, known)
	// Analyzers only read the module, so they run concurrently, each
	// into its own slice; merging in suite order keeps the pre-sort
	// ordering deterministic.
	perAnalyzer := make([][]Finding, len(analyzers))
	engine.ForEachWorker(len(analyzers), 0, func(_, i int) {
		a := analyzers[i]
		a.Run(m, &reporter{name: a.Name(), m: m, findings: &perAnalyzer[i]})
	})
	var findings []Finding
	for _, fs := range perAnalyzer {
		findings = append(findings, fs...)
	}
	// Apply suppressions: an allow covers findings of its analyzers on
	// its own line and the next line of the same file.
	for i := range findings {
		f := &findings[i]
		for j := range allows {
			al := &allows[j]
			if al.File != f.File || (al.Line != f.Line && al.Line != f.Line-1) {
				continue
			}
			for _, name := range al.Analyzers {
				if name == f.Analyzer {
					f.Suppressed = true
					f.AllowReason = al.Reason
					al.Used = true
				}
			}
		}
	}
	// Suppression hygiene: every annotation must earn its keep.
	for _, al := range allows {
		if !al.Used {
			allowFindings = append(allowFindings, Finding{
				Analyzer: "allow",
				File:     al.File,
				Line:     al.Line,
				Col:      1,
				Message: fmt.Sprintf("suppression for %s matches no finding; delete it or fix the annotation",
					strings.Join(al.Analyzers, ",")),
			})
		}
	}
	findings = append(findings, allowFindings...)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	sort.Slice(allows, func(i, j int) bool {
		a, b := allows[i], allows[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	return findings, allows, nil
}

// Unsuppressed filters to the findings that fail a pmevo-vet run.
func Unsuppressed(findings []Finding) []Finding {
	var out []Finding
	for _, f := range findings {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// collectAllows parses every pmevo:allow annotation in the module's
// non-test files, reporting malformed ones as "allow" findings.
func collectAllows(m *Module, known map[string]bool) ([]Allow, []Finding) {
	var allows []Allow
	var findings []Finding
	for _, p := range m.Packages {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//")
					if !ok {
						continue // block comments don't carry annotations
					}
					text = strings.TrimSpace(text)
					rest, ok := strings.CutPrefix(text, allowPrefix)
					if !ok {
						continue
					}
					pos := m.Fset.Position(c.Pos())
					bad := func(format string, args ...any) {
						findings = append(findings, Finding{
							Analyzer: "allow",
							File:     m.relFile(pos.Filename),
							Line:     pos.Line,
							Col:      pos.Column,
							Message:  fmt.Sprintf(format, args...),
						})
					}
					names, reason, found := strings.Cut(rest, " -- ")
					if !found || strings.TrimSpace(reason) == "" {
						bad("suppression without a reason: write %q", allowPrefix+" <analyzer> -- <why>")
						continue
					}
					var list []string
					for _, name := range strings.FieldsFunc(names, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
						if !known[name] {
							bad("suppression names unknown analyzer %q", name)
							list = nil
							break
						}
						list = append(list, name)
					}
					if len(list) == 0 {
						if found && len(strings.TrimSpace(names)) == 0 {
							bad("suppression names no analyzer")
						}
						continue
					}
					allows = append(allows, Allow{
						Analyzers: list,
						Reason:    strings.TrimSpace(reason),
						File:      m.relFile(pos.Filename),
						Line:      pos.Line,
					})
				}
			}
		}
	}
	return allows, findings
}

// inspectFiles walks every non-test file of the package.
func inspectFiles(p *Package, visit func(f *ast.File, n ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool { return visit(f, n) })
	}
}
