package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture tests pin each analyzer's exact findings: every
// // want "substring" marker in a fixture must match one unsuppressed
// finding on its line, and every finding must be claimed by a marker.

func TestDetrandFixture(t *testing.T) {
	runFixture(t, []Analyzer{&detrand{}},
		"internal/analysis/testdata/detrand/evo",
		"internal/analysis/testdata/detrand/other")
}

func TestMapiterFixture(t *testing.T) {
	runFixture(t, []Analyzer{&mapiter{}},
		"internal/analysis/testdata/mapiter/lib")
}

func TestCtxflowFixture(t *testing.T) {
	runFixture(t, []Analyzer{&ctxflow{}},
		"internal/analysis/testdata/ctxflow/lib",
		"internal/analysis/testdata/ctxflow/entry")
}

func TestFpguardFixture(t *testing.T) {
	runFixture(t, []Analyzer{&fpguard{}},
		"internal/analysis/testdata/fpguard/consumer")
}

func TestCachekeyFixture(t *testing.T) {
	runFixture(t, []Analyzer{&cachekey{}},
		"internal/analysis/testdata/cachekey/cachestore",
		"internal/analysis/testdata/cachekey/consumer")
}

func TestScratchescapeFixture(t *testing.T) {
	runFixture(t, []Analyzer{&scratchescape{}},
		"internal/analysis/testdata/scratchescape/engine")
}

func TestAtomichygieneFixture(t *testing.T) {
	runFixture(t, []Analyzer{&atomichygiene{}},
		"internal/analysis/testdata/atomichygiene/cachetable")
}

func TestGoroutinejoinFixture(t *testing.T) {
	runFixture(t, []Analyzer{&goroutinejoin{}},
		"internal/analysis/testdata/goroutinejoin/lib",
		"internal/analysis/testdata/goroutinejoin/entry")
}

func TestErrflowFixture(t *testing.T) {
	runFixture(t, []Analyzer{&errflow{}},
		"internal/analysis/testdata/errflow/cachestore",
		"internal/analysis/testdata/errflow/consumer")
}

func TestAllowHygieneFixture(t *testing.T) {
	runFixture(t, Suite(),
		"internal/analysis/testdata/allowcheck/lib")
}

// TestModuleSelfCheck runs the full suite over the real module: main
// must stay clean, and every deliberate exception must still be
// earning its keep.
func TestModuleSelfCheck(t *testing.T) {
	m, err := LoadModule(".")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	findings, allows, err := Run(m, Suite())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range Unsuppressed(findings) {
		t.Errorf("unsuppressed finding on main: %s", f)
	}
	if len(allows) == 0 {
		t.Error("no pmevo:allow annotations found; the deliberate exceptions (engine/pool.go shims, evo/rng.go seam) should be present")
	}
	for _, a := range allows {
		if !a.Used {
			t.Errorf("stale suppression: %s", a)
		}
	}
}

type findingKey struct {
	file string
	line int
}

func runFixture(t *testing.T, analyzers []Analyzer, dirs ...string) {
	t.Helper()
	m, err := LoadPackages(".", dirs...)
	if err != nil {
		t.Fatalf("LoadPackages(%v): %v", dirs, err)
	}
	findings, _, err := Run(m, analyzers)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wants := collectWants(t, m.Root, dirs)

	got := map[findingKey][]string{}
	for _, f := range Unsuppressed(findings) {
		if !inFixtureDirs(f.File, dirs) {
			t.Errorf("finding outside fixture dirs: %s", f)
			continue
		}
		k := findingKey{f.File, f.Line}
		got[k] = append(got[k], f.Message)
	}

	for k, markers := range wants {
		msgs := got[k]
		delete(got, k)
		for _, marker := range markers {
			matched := -1
			for i, msg := range msgs {
				if strings.Contains(msg, marker) {
					matched = i
					break
				}
			}
			if matched < 0 {
				t.Errorf("%s:%d: no finding matching want %q (findings on line: %q)", k.file, k.line, marker, msgs)
				continue
			}
			msgs = append(msgs[:matched], msgs[matched+1:]...)
		}
		for _, msg := range msgs {
			t.Errorf("%s:%d: finding not claimed by any want marker: %s", k.file, k.line, msg)
		}
	}
	for k, msgs := range got {
		for _, msg := range msgs {
			t.Errorf("%s:%d: unexpected finding (no want markers on line): %s", k.file, k.line, msg)
		}
	}
}

func inFixtureDirs(file string, dirs []string) bool {
	for _, d := range dirs {
		if strings.HasPrefix(file, d+"/") {
			return true
		}
	}
	return false
}

var wantQuoted = regexp.MustCompile(`"([^"]*)"`)

// collectWants scans the fixture sources for want markers. A line may
// carry several: // want "a" "b" matches two findings on that line.
func collectWants(t *testing.T, root string, dirs []string) map[findingKey][]string {
	t.Helper()
	wants := map[findingKey][]string{}
	for _, d := range dirs {
		abs := filepath.Join(root, filepath.FromSlash(d))
		ents, err := os.ReadDir(abs)
		if err != nil {
			t.Fatalf("reading fixture dir: %v", err)
		}
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(abs, e.Name()))
			if err != nil {
				t.Fatalf("reading fixture: %v", err)
			}
			rel := d + "/" + e.Name()
			for i, line := range strings.Split(string(data), "\n") {
				idx := strings.Index(line, `want "`)
				if idx < 0 {
					continue
				}
				k := findingKey{rel, i + 1}
				for _, mm := range wantQuoted.FindAllStringSubmatch(line[idx:], -1) {
					wants[k] = append(wants[k], mm[1])
				}
			}
		}
	}
	if len(wants) == 0 {
		// Scope-control fixtures legitimately carry no markers, but at
		// least one dir per call should; a typo'd marker comment would
		// otherwise pass silently.
		for _, d := range dirs {
			if strings.Contains(d, "/other") || strings.Contains(d, "/entry") {
				continue
			}
			t.Fatalf("no want markers found under %v", dirs)
		}
	}
	return wants
}
