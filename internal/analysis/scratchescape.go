package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// scratchescape enforces the worker-locality contract behind PMEvo's
// parallel fitness evaluation (PLDI 2020 §5): per-worker scratch arenas
// — engine.evalScratch, machine's runScratch, measure's loopArena, and
// anything drawn from a sync.Pool — are reused across claims, so a
// value that escapes the claiming function's control (stored through a
// non-local path, sent on a channel, captured by a spawned goroutine,
// or returned from a non-accessor) can be handed to the next worker
// while the first still writes to it. The analyzer also checks the release half of the
// contract: within the claiming function, a Pool.Put (or a
// put*/release*/free*-named call) on the claimed value must dominate
// every path to the exit, or the arena silently stops being reused.
//
// A slice of scratches is a batch, claimed and released whole.
// Functions whose own result type is a scratch type are accessors: the
// return IS the handoff, and the caller inherits the release
// obligation, so both checks skip them. Deliberate ownership transfers
// (a fork that parks its scratch in a sibling struct for a later
// epilogue release) carry a pmevo:allow with the release site named.
type scratchescape struct{}

func (*scratchescape) Name() string { return "scratchescape" }

func (*scratchescape) Doc() string {
	return "per-worker scratch values (engine.evalScratch, machine.runScratch, measure.loopArena, sync.Pool gets) must not " +
		"escape their claiming function and must be released on every path to return"
}

// scratchTypes lists the per-worker arena types by (import-path suffix,
// name); suffix matching covers the testdata fixture twins.
var scratchTypes = [...]struct{ pathSuffix, name string }{
	{"engine", "evalScratch"},
	{"machine", "runScratch"},
	{"measure", "loopArena"},
}

func isScratchType(t types.Type) bool {
	if sl, ok := types.Unalias(t).(*types.Slice); ok {
		t = sl.Elem() // a batch of scratches is claimed and released whole
	}
	for _, s := range scratchTypes {
		if isNamedType(t, s.pathSuffix, s.name) {
			return true
		}
	}
	return false
}

// isPoolMethod reports whether the call invokes the named method of
// sync.Pool.
func isPoolMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamedType(sig.Recv().Type(), "sync", "Pool")
}

// isReleaseCall reports whether the call returns a scratch to its pool:
// sync.Pool.Put, or any function or method whose name reads as a
// release (putScratch, releaseArena, freeBuf).
func isReleaseCall(info *types.Info, call *ast.CallExpr) bool {
	if isPoolMethod(info, call, "Put") {
		return true
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	name := strings.ToLower(fn.Name())
	return strings.HasPrefix(name, "put") || strings.HasPrefix(name, "release") || strings.HasPrefix(name, "free")
}

// claimsScratch reports whether the call produces a fresh claim: a
// sync.Pool Get, or a call with some scratch-typed result. scratchRes
// is the result index carrying the value (Pool.Get's interface result
// is index 0).
func claimsScratch(p *Package, call *ast.CallExpr) (scratchRes int, ok bool) {
	if isPoolMethod(p.Info, call, "Get") {
		return 0, true
	}
	fn := calleeFunc(p.Info, call)
	if fn == nil {
		return 0, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return 0, false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isScratchType(sig.Results().At(i).Type()) {
			return i, true
		}
	}
	return 0, false
}

// hasScratchResult reports whether the function type returns a scratch
// value — the accessor exemption.
func hasScratchResult(p *Package, ftype *ast.FuncType) bool {
	if ftype.Results == nil {
		return false
	}
	for _, field := range ftype.Results.List {
		if tv, ok := p.Info.Types[field.Type]; ok && isScratchType(tv.Type) {
			return true
		}
	}
	return false
}

func (*scratchescape) Run(m *Module, r Reporter) {
	for _, p := range m.Packages {
		funcBodies(p, func(fn funcUnit) {
			runScratchEscape(p, r, fn)
		})
	}
}

// claimSite is one scratch claim inside a function.
type claimSite struct {
	call *ast.CallExpr
	res  int
	bit  uint64
	blk  *Block
	idx  int // node index of the claiming node within blk
}

func runScratchEscape(p *Package, r Reporter, fn funcUnit) {
	// Cheap prescan: skip the CFG entirely for functions that cannot
	// claim (no call could be a Get or return a scratch type).
	found := false
	inspectShallow(fn.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if _, ok := claimsScratch(p, call); ok {
				found = true
			}
		}
		return !found
	})
	if !found {
		return
	}

	cfg := BuildCFG(fn.body)
	// Assign an origin bit to each claim site, in block order.
	claims := map[*ast.CallExpr]claimSite{}
	var sites []claimSite
	for _, b := range cfg.Blocks {
		for i, n := range b.Nodes {
			inspectShallow(n, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				if res, ok := claimsScratch(p, call); ok {
					s := claimSite{call: call, res: res, bit: OriginBit(len(sites)), blk: b, idx: i}
					claims[call] = s
					sites = append(sites, s)
				}
				return true
			})
		}
	}
	if len(sites) == 0 {
		return
	}
	flow := NewFlow(p, cfg, func(c *ast.CallExpr, result int) uint64 {
		if s, ok := claims[c]; ok && result == s.res {
			return s.bit
		}
		return 0
	})
	accessor := hasScratchResult(p, fn.ftype)

	// Escape checks, flow-sensitively at each node.
	flow.Walk(func(_ *Block, _ int, n ast.Node, st varMask) {
		switch n := n.(type) {
		case *ast.SendStmt:
			if flow.ExprMask(st, n.Value) != 0 {
				r.ReportRangef(n.Pos(), n.End(), "per-worker scratch sent on a channel escapes its worker; pass results, not the arena")
			}
		case *ast.GoStmt:
			reportSpawnCaptures(p, r, flow, st, n, "per-worker scratch", "scratch")
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if _, isIdent := ast.Unparen(lhs).(*ast.Ident); isIdent {
					continue
				}
				var rhsMask uint64
				if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
					rhsMask = flow.ExprMask(st, n.Rhs[0])
				} else if i < len(n.Rhs) {
					rhsMask = flow.ExprMask(st, n.Rhs[i])
				}
				if rhsMask == 0 {
					continue
				}
				root := rootIdent(lhs)
				if root == nil {
					continue
				}
				obj := p.Info.ObjectOf(root)
				if obj == nil || declaredWithin(obj, fn.body) {
					continue // store into a function-local aggregate stays in the worker
				}
				r.ReportRangef(n.Pos(), n.End(), "per-worker scratch stored through %s escapes the claiming function; it can be re-claimed while still referenced", root.Name)
			}
		case *ast.ReturnStmt:
			if accessor {
				return
			}
			for _, res := range n.Results {
				if flow.ExprMask(st, res) != 0 {
					r.ReportRangef(n.Pos(), n.End(), "per-worker scratch returned from a non-accessor; only functions whose result type is the scratch type may hand one out")
				}
			}
		}
	})

	// Release check: every claim must be covered on every path to exit.
	if accessor {
		return // the caller inherits the obligation with the value
	}
	any := flow.AnyMask()
	for _, s := range sites {
		bit := s.bit
		releases := func(n ast.Node) bool {
			rel := false
			ast.Inspect(n, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok || !isReleaseCall(p.Info, call) {
					return true
				}
				for _, a := range call.Args {
					if flow.ExprMask(any, a)&bit != 0 {
						rel = true
					}
				}
				return !rel
			})
			return rel
		}
		if cfg.ReachesExitAvoiding(s.blk, s.idx+1, releases) {
			r.ReportRangef(s.call.Pos(), s.call.End(), "scratch claimed here is not released (Pool.Put or put*/release*/free*) on every path to return")
		}
	}
}

// reportSpawnCaptures flags go-statement arguments and closure captures
// whose value carries an origin mask under st. what/short name the
// contract in the message.
func reportSpawnCaptures(p *Package, r Reporter, flow *Flow, st varMask, g *ast.GoStmt, what, short string) {
	for _, a := range g.Call.Args {
		if flow.ExprMask(st, a) != 0 {
			r.ReportRangef(a.Pos(), a.End(), "%s passed to a spawned goroutine outlives the claim; the worker may re-claim it concurrently", what)
		}
	}
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		for _, v := range freeVars(p.Info, lit) {
			if st[v] != 0 {
				r.ReportRangef(g.Pos(), g.End(), "%s %s captured by a spawned goroutine outlives the claim", what, v.Name())
			}
		}
	}
}
