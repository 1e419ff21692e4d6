package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// fpguard is the compile-time complement to the pmevodebug runtime
// panic: outside internal/portmap, the decomposition state of a
// portmap.Mapping must only change through the fingerprint-maintaining
// mutators (SetDecomp, SetDecompMerged, SetUopCount, RemoveUopAt,
// InsertUopAt, AddUop). A direct write to m.Decomp leaves the cached
// per-instruction fingerprints stale, which silently poisons everything
// keyed by them downstream: the engine's unit tables and evo's duplicate
// skip.
type fpguard struct{}

func (*fpguard) Name() string { return "fpguard" }

func (*fpguard) Doc() string {
	return "outside internal/portmap, Mapping.Decomp must not be written directly; " +
		"use SetDecomp/SetDecompMerged/SetUopCount/RemoveUopAt/InsertUopAt/AddUop so decomposition fingerprints stay fresh"
}

const fpguardAdvice = "mutate through SetDecomp/SetDecompMerged/SetUopCount/RemoveUopAt/InsertUopAt/AddUop so the fingerprint cache stays fresh"

func (*fpguard) Run(m *Module, r Reporter) {
	for _, p := range m.Packages {
		if strings.HasSuffix(p.ImportPath, "internal/portmap") {
			continue // the mutators themselves live here
		}
		inspectFiles(p, func(f *ast.File, n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if onDecompPath(p, lhs) {
						r.ReportRangef(lhs.Pos(), lhs.End(), "direct write to Mapping.Decomp outside internal/portmap; %s", fpguardAdvice)
					}
				}
			case *ast.IncDecStmt:
				if onDecompPath(p, n.X) {
					r.ReportRangef(n.X.Pos(), n.X.End(), "direct write to Mapping.Decomp outside internal/portmap; %s", fpguardAdvice)
				}
			case *ast.CallExpr:
				// append with a Decomp-rooted first argument may mutate
				// the backing array in place when capacity allows.
				if isBuiltin(p.Info, n, "append") && len(n.Args) > 0 && onDecompPath(p, n.Args[0]) {
					r.Reportf(n.Args[0].Pos(), "append onto Mapping.Decomp outside internal/portmap may mutate the decomposition in place; %s", fpguardAdvice)
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND && onDecompPath(p, n.X) {
					r.ReportRangef(n.X.Pos(), n.X.End(), "taking the address of Mapping.Decomp state outside internal/portmap enables unguarded mutation; %s", fpguardAdvice)
				}
			}
			return true
		})
	}
}

// onDecompPath reports whether the expression's access path goes
// through the Decomp field of a portmap.Mapping (m.Decomp,
// m.Decomp[i], m.Decomp[i][j].Count, ...).
func onDecompPath(p *Package, e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if x.Sel.Name == "Decomp" {
				if tv, ok := p.Info.Types[x.X]; ok && isNamedType(tv.Type, "internal/portmap", "Mapping") {
					return true
				}
			}
			e = x.X
		default:
			return false
		}
	}
}
