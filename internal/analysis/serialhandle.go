package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// serialhandle enforces the documented-serial discipline: a type whose
// declaration carries a //pmevo:serial doc tag (engine.BatchEvaluator
// first — it owns private evaluation scratch that only one goroutine
// may use) hands out values that must stay confined to
// the goroutine that created them. The analyzer flags the three ways a
// handle crosses goroutines: captured by (or passed to) a go
// statement, sent on a channel, or stored through a non-local path —
// a struct or package variable another goroutine can read it back out
// of. Constructors returning the handle are the sanctioned hand-off and
// stay exempt; a deliberate store into a structure with documented
// single-goroutine ownership (evo's per-island state) carries an
// allow annotation naming that ownership.
type serialhandle struct{}

func (*serialhandle) Name() string { return "serialhandle" }

func (*serialhandle) Doc() string {
	return "values of //pmevo:serial-tagged types must not be captured by go closures, " +
		"sent on channels, or stored to shared structs"
}

const serialTag = "pmevo:serial"

// collectSerialTypes finds every type declaration tagged serial.
func collectSerialTypes(m *Module) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	for _, p := range m.Packages {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if !hasDocTag(gd.Doc, serialTag) && !hasDocTag(ts.Doc, serialTag) {
						continue
					}
					if tn, ok := p.Info.Defs[ts.Name].(*types.TypeName); ok {
						out[tn] = true
					}
				}
			}
		}
	}
	return out
}

func hasDocTag(doc *ast.CommentGroup, tag string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if text, ok := strings.CutPrefix(c.Text, "//"); ok && strings.TrimSpace(text) == tag {
			return true
		}
	}
	return false
}

func isSerialType(serial map[*types.TypeName]bool, t types.Type) bool {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	return ok && serial[n.Obj()]
}

func (a *serialhandle) Run(m *Module, r Reporter) {
	serial := collectSerialTypes(m)
	if len(serial) == 0 {
		return
	}
	isSerial := func(p *Package, e ast.Expr) bool {
		tv, ok := p.Info.Types[e]
		return ok && isSerialType(serial, tv.Type)
	}
	for _, p := range m.Packages {
		funcBodies(p, func(fn funcUnit) {
			inspectShallow(fn.body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					for _, arg := range n.Call.Args {
						if isSerial(p, arg) {
							r.ReportRangef(arg.Pos(), arg.End(), "serial handle passed to a spawned goroutine; //pmevo:serial types are confined to their creating goroutine")
						}
					}
					if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
						for _, v := range freeVars(p.Info, lit) {
							if isSerialType(serial, v.Type()) {
								r.ReportRangef(n.Pos(), n.End(), "serial handle %s captured by a spawned goroutine; claim a fresh handle inside the worker instead", v.Name())
							}
						}
					}
				case *ast.SendStmt:
					if isSerial(p, n.Value) {
						r.ReportRangef(n.Value.Pos(), n.Value.End(), "serial handle sent on a channel crosses goroutines; //pmevo:serial types are confined to their creating goroutine")
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if len(n.Rhs) != len(n.Lhs) || !isSerial(p, n.Rhs[i]) {
							continue
						}
						reportSerialStore(p, r, fn, n.Rhs[i], lhs)
					}
				case *ast.CompositeLit:
					for _, el := range n.Elts {
						v := el
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							v = kv.Value
						}
						if isSerial(p, v) {
							r.ReportRangef(v.Pos(), v.End(), "serial handle stored into a composite literal; if the enclosing struct is single-goroutine by design, annotate the ownership with pmevo:allow")
						}
					}
				}
				return true
			})
		})
	}
}

// reportSerialStore flags an assignment of a serial value to a
// shared-visible target: a path rooted outside the function, or a
// package-level variable.
func reportSerialStore(p *Package, r Reporter, fn funcUnit, rhs ast.Expr, lhs ast.Expr) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		obj := p.Info.ObjectOf(id)
		if v, ok := obj.(*types.Var); ok && v.Parent() != nil && v.Parent().Parent() == types.Universe {
			r.ReportRangef(lhs.Pos(), lhs.End(), "serial handle stored in package variable %s is visible to every goroutine", id.Name)
		}
		return // plain local assignment stays confined
	}
	root := rootIdent(lhs)
	if root == nil {
		return
	}
	obj := p.Info.ObjectOf(root)
	if obj == nil || declaredWithin(obj, fn.body) {
		return
	}
	r.ReportRangef(lhs.Pos(), lhs.End(), "serial handle stored through %s escapes the creating function; a handle must stay with one goroutine", root.Name)
}
