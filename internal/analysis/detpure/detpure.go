// Package detpure implements the determinism-purity analyzer.
//
// The reproduction strategy rests on the deterministic packages —
// internal/core above all — being pure state machines: the same Diner
// must run identically under the deterministic simulator, the model
// checker, and the live goroutine runtime, and a seeded simulation must
// be a pure function of its configuration and seed. detpure machine-
// checks what the package doc comments promise by convention:
//
//   - no wall-clock reads or timers (time.Now, time.Since, time.Sleep,
//     timer/ticker constructors) — virtual time comes from sim.Kernel;
//   - no global math/rand state — only kernel-derived *rand.Rand values
//     (or explicit seed parameters) are allowed;
//   - no goroutine launches and no channel operations — concurrency
//     belongs to internal/live, outside the deterministic core;
//   - no iteration over a map where the iteration order can escape:
//     a map range is allowed only when its body is order-insensitive
//     (commutative aggregation, per-key writes, or collecting keys for
//     a subsequent sort), because any other body can leak Go's
//     randomized map order into emitted messages, traces, or metrics
//     and silently break seeded reproducibility.
//
// The map rule is a syntactic approximation checked recursively over
// the loop body; anything it cannot prove order-insensitive is flagged.
// Genuinely safe loops that fall outside the recognized forms can carry
// a justified //lint:ignore detpure directive.
package detpure

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Scope lists the packages that must stay deterministic. Tests extend
// it with fixture packages. The real-network packages (internal/wire,
// internal/remote) are deliberately absent: they exist to touch wall
// clocks, sockets, and goroutines, and are covered by lockheld
// instead. internal/netsim IS in scope — the virtual network must
// never consult the wall clock or global randomness, or seeded soaks
// stop replaying; its one deliberate escape, the ticker channel,
// carries lint:ignore justifications.
var Scope = []string{
	"repro/internal/core",
	"repro/internal/sim",
	"repro/internal/mc",
	"repro/internal/runner",
	"repro/internal/rlink",
	"repro/internal/stabilize",
	"repro/internal/netsim",
	"repro/internal/sweep",
	"repro/internal/backoff",
	"repro/internal/vclock",
	"repro/internal/scenario",
	"repro/internal/dsvc",
}

// forbiddenTimeFuncs are the wall-clock entry points of package time.
var forbiddenTimeFuncs = []string{
	"Now", "Since", "Until", "Sleep", "After", "AfterFunc",
	"Tick", "NewTimer", "NewTicker",
}

// globalRandExempt are the math/rand package functions that do NOT
// touch the global source: constructors for explicitly seeded state.
var globalRandExempt = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// Analyzer is the detpure analysis.
var Analyzer = &analysis.Analyzer{
	Name: "detpure",
	Doc: "forbid clocks, global randomness, goroutines, channel ops, and " +
		"order-leaking map iteration in the deterministic packages",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.InScope(Scope, pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "goroutine launch in deterministic package %s; concurrency belongs to internal/live", pass.Pkg.Path())
			case *ast.SendStmt:
				pass.Reportf(n.Pos(), "channel send in deterministic package %s", pass.Pkg.Path())
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pass.Reportf(n.Pos(), "channel receive in deterministic package %s", pass.Pkg.Path())
				}
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(), "select statement in deterministic package %s", pass.Pkg.Path())
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkRange(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	if analysis.IsBuiltinCall(info, call, "close") {
		pass.Reportf(call.Pos(), "channel close in deterministic package %s", pass.Pkg.Path())
		return
	}
	if analysis.IsBuiltinCall(info, call, "make") {
		if tv, ok := info.Types[call]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				pass.Reportf(call.Pos(), "channel creation in deterministic package %s", pass.Pkg.Path())
				return
			}
		}
	}
	if analysis.IsPkgFunc(info, call, "time", forbiddenTimeFuncs...) {
		pass.Reportf(call.Pos(), "wall-clock use time.%s in deterministic package %s; derive time from sim.Kernel",
			analysis.Callee(info, call).Name(), pass.Pkg.Path())
		return
	}
	for _, randPkg := range []string{"math/rand", "math/rand/v2"} {
		if analysis.IsPkgFunc(info, call, randPkg) {
			name := analysis.Callee(info, call).Name()
			if !globalRandExempt[name] {
				pass.Reportf(call.Pos(), "global math/rand state via rand.%s in deterministic package %s; draw from the kernel's *rand.Rand",
					name, pass.Pkg.Path())
			}
			return
		}
	}
}

// checkRange flags a range over a map unless its body is provably
// order-insensitive.
func checkRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	c := &rangeChecker{pass: pass, keyObj: identObj(pass.TypesInfo, rng.Key)}
	if !c.allowedBlock(rng.Body) {
		pass.Reportf(rng.Pos(), "map iteration order can escape this loop (%s); iterate sorted keys or restrict the body to order-insensitive updates", c.reason)
	}
}

func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// rangeChecker proves (conservatively) that a map-range body cannot
// observe iteration order. The recognized order-insensitive forms:
//
//   - writes through an index expression (per-key map/slice writes);
//   - assignments and commutative updates (+=, -=, |=, &=, ^=, ++, --)
//     of variables, excluding string concatenation;
//   - appending the range KEY to a slice (the collect-then-sort idiom);
//   - delete/copy statements and calls to pure builtins
//     (len, cap, min, max, make, new);
//   - if/for/block statements whose parts recursively qualify;
//   - continue and break.
//
// Everything else — arbitrary calls, returns, sends, closures, string
// accumulation, appending values — may leak the order and is rejected.
type rangeChecker struct {
	pass   *analysis.Pass
	keyObj types.Object
	reason string
}

func (c *rangeChecker) fail(reason string) bool {
	if c.reason == "" {
		c.reason = reason
	}
	return false
}

func (c *rangeChecker) allowedBlock(b *ast.BlockStmt) bool {
	for _, s := range b.List {
		if !c.allowedStmt(s) {
			return false
		}
	}
	return true
}

func (c *rangeChecker) allowedStmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if s.Tok == token.ADD_ASSIGN {
			for _, lhs := range s.Lhs {
				if tv, ok := c.pass.TypesInfo.Types[lhs]; ok {
					if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
						return c.fail("string concatenation accumulates in iteration order")
					}
				}
			}
		}
		for _, e := range s.Lhs {
			if !c.allowedExpr(e) {
				return false
			}
		}
		for _, e := range s.Rhs {
			if !c.allowedExpr(e) {
				return false
			}
		}
		return true
	case *ast.IncDecStmt:
		return c.allowedExpr(s.X)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return c.fail("declaration")
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				if !c.allowedExpr(v) {
					return false
				}
			}
		}
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return c.fail("expression statement")
		}
		if analysis.IsBuiltinCall(c.pass.TypesInfo, call, "delete") ||
			analysis.IsBuiltinCall(c.pass.TypesInfo, call, "copy") {
			for _, a := range call.Args {
				if !c.allowedExpr(a) {
					return false
				}
			}
			return true
		}
		return c.fail("function call")
	case *ast.IfStmt:
		if s.Init != nil && !c.allowedStmt(s.Init) {
			return false
		}
		if !c.allowedExpr(s.Cond) || !c.allowedBlock(s.Body) {
			return false
		}
		if s.Else != nil && !c.allowedStmt(s.Else) {
			return false
		}
		return true
	case *ast.BlockStmt:
		return c.allowedBlock(s)
	case *ast.BranchStmt:
		if s.Tok == token.CONTINUE || s.Tok == token.BREAK {
			return true
		}
		return c.fail("branch")
	case *ast.ForStmt:
		if s.Init != nil && !c.allowedStmt(s.Init) {
			return false
		}
		if s.Cond != nil && !c.allowedExpr(s.Cond) {
			return false
		}
		if s.Post != nil && !c.allowedStmt(s.Post) {
			return false
		}
		return c.allowedBlock(s.Body)
	case *ast.RangeStmt:
		// The nested range's own map-ness is checked independently by
		// the traversal in run; here only order-escape matters.
		return c.allowedExpr(s.X) && c.allowedBlock(s.Body)
	default:
		return c.fail("statement form not provably order-insensitive")
	}
}

// pureBuiltins never observe iteration order themselves.
var pureBuiltins = []string{"len", "cap", "min", "max", "make", "new"}

func (c *rangeChecker) allowedExpr(e ast.Expr) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		if !ok {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if c.allowedCall(n) {
				return true
			}
			ok = false
			return false
		case *ast.FuncLit:
			ok = c.fail("closure may capture iteration order")
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				ok = c.fail("channel receive")
				return false
			}
		}
		return true
	})
	return ok
}

// allowedCall accepts pure builtins, type conversions, and the
// collect-keys idiom append(slice, key).
func (c *rangeChecker) allowedCall(call *ast.CallExpr) bool {
	info := c.pass.TypesInfo
	if analysis.IsConversion(info, call) {
		return true
	}
	for _, b := range pureBuiltins {
		if analysis.IsBuiltinCall(info, call, b) {
			return true
		}
	}
	if analysis.IsBuiltinCall(info, call, "append") && c.keyObj != nil {
		for _, a := range call.Args[1:] {
			if identObj(info, a) != c.keyObj {
				return c.fail("append of a value (not the range key) records iteration order")
			}
		}
		return true
	}
	return c.fail("function call may observe iteration order")
}
