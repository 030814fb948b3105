// Package nodeterm rejects sources of run-to-run nondeterminism in the
// packages that carry SCAR's replay contract: bit-identical search and
// simulation results at any worker count and on any run.
//
// In those packages it forbids:
//
//   - wall-clock reads (time.Now/Since/Until/After/Tick/NewTicker/
//     NewTimer/AfterFunc/Sleep) — schedules and simulated timelines
//     must derive from model time, never host time;
//   - the process-global math/rand (and math/rand/v2) stream — every
//     RNG must be constructed from an explicit seed so replay can
//     reproduce the draw sequence (all rand.New* constructors take
//     explicit seeds, so construction through them is by definition
//     seeded; the globals and crypto/rand are the unseeded sources);
//   - crypto/rand, which is nondeterministic by design;
//   - select statements with two or more communication cases, which
//     resolve by uniform choice when more than one channel is ready;
//   - ranging over a map unless the loop body is a recognized
//     commutative aggregation (integer counting/summing, bitwise
//     accumulation, collecting keys for a later sort, deleting from
//     the map). Float accumulation is NOT exempt: float addition is
//     not associative, so iteration order changes the bits.
//
// Genuine exceptions (operator-facing timing metadata, intentionally
// racy fan-in) carry a `//scar:nondeterm <reason>` comment; package
// lint verifies each one is load-bearing.
package nodeterm

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"example.com/scar/tools/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name:        "nodeterm",
	SuppressKey: "nondeterm",
	Doc: "forbid wall-clock reads, global RNG streams, multi-channel selects, " +
		"and order-sensitive map iteration in determinism-contract packages",
	Run: run,
}

// ContractSuffixes lists the import-path segments whose packages carry
// the replay contract. Matching is by path segment, so subpackages of
// a contract package inherit the contract.
var ContractSuffixes = []string{
	"internal/core",
	"internal/online",
	"internal/eval",
}

// UnderContract reports whether the import path is covered by the
// determinism contract.
func UnderContract(path string) bool {
	for _, s := range ContractSuffixes {
		if strings.Contains("/"+path+"/", "/"+s+"/") {
			return true
		}
	}
	return false
}

// wallClock is the set of time functions that read or schedule against
// host time. time.Duration arithmetic and time.Unix conversions stay
// legal — they are pure.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"Tick": true, "NewTicker": true, "NewTimer": true,
	"AfterFunc": true, "Sleep": true,
}

func run(pass *analysis.Pass) error {
	if !UnderContract(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if testFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkSelector(pass, n)
			case *ast.SelectStmt:
				checkSelect(pass, n)
			case *ast.RangeStmt:
				checkRange(pass, n)
			}
			return true
		})
	}
	return nil
}

func testFile(pass *analysis.Pass, f *ast.File) bool {
	return strings.HasSuffix(pass.Fset.Position(f.Package).Filename, "_test.go")
}

func checkSelector(pass *analysis.Pass, sel *ast.SelectorExpr) {
	pn := pass.PkgNameOf(sel.X)
	if pn == nil {
		return
	}
	name := sel.Sel.Name
	switch pn.Imported().Path() {
	case "time":
		if wallClock[name] {
			pass.Reportf(sel.Pos(), "time.%s reads the wall clock; determinism-contract packages must derive all times from model time", name)
		}
	case "math/rand", "math/rand/v2":
		// Only flag references to package-level functions: the global
		// stream's draws depend on every other draw in the process.
		// Types (rand.Rand, rand.Source) and the seeded constructors
		// (rand.New, rand.NewSource, rand.NewPCG, ...) are fine.
		if _, isFunc := pass.TypesInfo.Uses[sel.Sel].(*types.Func); isFunc && !strings.HasPrefix(name, "New") {
			pass.Reportf(sel.Pos(), "rand.%s draws from the process-global stream; construct a seeded *rand.Rand instead", name)
		}
	case "crypto/rand":
		pass.Reportf(sel.Pos(), "crypto/rand.%s is nondeterministic by design; use a seeded math/rand source", name)
	}
}

func checkSelect(pass *analysis.Pass, sel *ast.SelectStmt) {
	comms := 0
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
			comms++
		}
	}
	if comms >= 2 {
		pass.Reportf(sel.Pos(), "select over %d channels resolves by uniform choice when several are ready; result paths must not depend on it", comms)
	}
}

func checkRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if commutativeBody(pass, rng) {
		return
	}
	pass.Reportf(rng.Pos(), "range over map has nondeterministic iteration order; sort the keys first or restrict the body to commutative aggregation")
}

// commutativeBody reports whether the loop body provably computes the
// same result under any iteration order. Two shapes qualify:
//
// Accumulation — every statement is one of: integer ++/--/+=/|=/&=/^=
// (associative and commutative; float += is neither), collecting the
// key with `dst = append(dst, k)` for a later sort, `delete(m, ...)`,
// or a transposition `dst[k] = expr` writing the range key's slot.
// Because each key occurs once, slot writes commute — provided expr
// reads nothing the body itself mutates, which is checked.
//
// Existential — every statement is `if cond { return ... }` with no
// mutations anywhere in the body and return values independent of
// which key triggered them: whichever iteration order runs, either
// some key satisfies cond and the same values are returned, or none
// does and the loop completes.
func commutativeBody(pass *analysis.Pass, rng *ast.RangeStmt) bool {
	key, _ := rng.Key.(*ast.Ident)
	val, _ := rng.Value.(*ast.Ident)
	return accumulationBody(pass, rng.Body.List, key) ||
		existentialBody(pass, rng.Body.List, key, val)
}

// accumulationBody recognizes the pure-accumulation shape.
func accumulationBody(pass *analysis.Pass, body []ast.Stmt, key *ast.Ident) bool {
	mutated := mutatedRoots(pass, body)
	for _, s := range body {
		if !accumulationStmt(pass, s, key, mutated) {
			return false
		}
	}
	return true
}

func accumulationStmt(pass *analysis.Pass, s ast.Stmt, key *ast.Ident, mutated map[types.Object]bool) bool {
	switch s := s.(type) {
	case *ast.IncDecStmt:
		return isInteger(pass, s.X)
	case *ast.AssignStmt:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return false
		}
		switch s.Tok {
		case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			return isInteger(pass, s.Lhs[0])
		case token.ASSIGN:
			if isAppendOfKey(pass, s, key) {
				return true
			}
			return isMapSetAtKey(pass, s, key, mutated)
		}
		return false
	case *ast.ExprStmt:
		// delete(m, k) — shrinking the map is order-independent.
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return false
		}
		b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
		return ok && b.Name() == "delete"
	}
	return false
}

// existentialBody recognizes the short-circuit shape: only
// `if [init;] cond { return ... }` statements, nothing mutated.
func existentialBody(pass *analysis.Pass, body []ast.Stmt, key, val *ast.Ident) bool {
	if len(mutatedRoots(pass, body)) > 0 {
		return false
	}
	for _, s := range body {
		ifs, ok := s.(*ast.IfStmt)
		if !ok || ifs.Else != nil {
			return false
		}
		if ifs.Init != nil {
			// Only a scoped definition (`if v, ok := ...; cond`),
			// never an assignment to outer state.
			init, ok := ifs.Init.(*ast.AssignStmt)
			if !ok || init.Tok != token.DEFINE {
				return false
			}
		}
		for _, is := range ifs.Body.List {
			ret, ok := is.(*ast.ReturnStmt)
			if !ok {
				return false
			}
			// The returned values must not depend on which key
			// triggered the return.
			for _, res := range ret.Results {
				if dependsOn(pass, res, key, val, ifs.Init) {
					return false
				}
			}
		}
	}
	return true
}

// mutatedRoots collects the root objects written anywhere in body
// (assignment targets, ++/--) so commutativity checks can refuse
// expressions that read partially-accumulated state. := definitions
// are loop-scoped, not mutations of outer state, and are excluded.
func mutatedRoots(pass *analysis.Pass, body []ast.Stmt) map[types.Object]bool {
	mutated := make(map[types.Object]bool)
	add := func(e ast.Expr) {
		if obj := rootObject(pass, e); obj != nil {
			mutated[obj] = true
		}
	}
	for _, s := range body {
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range n.Lhs {
					add(lhs)
				}
			case *ast.IncDecStmt:
				add(n.X)
			case *ast.CallExpr:
				// delete(m, k) mutates m.
				if id, ok := n.Fun.(*ast.Ident); ok {
					if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "delete" && len(n.Args) == 2 {
						add(n.Args[0])
					}
				}
			}
			return true
		})
	}
	return mutated
}

// rootObject resolves the base object of an lvalue: x, x.f, x[i],
// (*x).f all root at x.
func rootObject(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return pass.TypesInfo.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isMapSetAtKey matches `dst[k] = expr` where dst is a map and k the
// range key: each iteration writes a distinct slot, so the writes
// commute as long as expr reads none of the body's own accumulation.
func isMapSetAtKey(pass *analysis.Pass, s *ast.AssignStmt, key *ast.Ident, mutated map[types.Object]bool) bool {
	if key == nil {
		return false
	}
	idx, ok := s.Lhs[0].(*ast.IndexExpr)
	if !ok {
		return false
	}
	t := pass.TypesInfo.TypeOf(idx.X)
	if t == nil {
		return false
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return false
	}
	ki, ok := idx.Index.(*ast.Ident)
	if !ok || pass.TypesInfo.ObjectOf(ki) != pass.TypesInfo.ObjectOf(key) {
		return false
	}
	clean := true
	ast.Inspect(s.Rhs[0], func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && mutated[pass.TypesInfo.ObjectOf(id)] {
			clean = false
		}
		return clean
	})
	return clean
}

// dependsOn reports whether expr references the range key, the range
// value, or anything defined by the enclosing if's init statement.
func dependsOn(pass *analysis.Pass, expr ast.Expr, key, val *ast.Ident, init ast.Stmt) bool {
	scoped := make(map[types.Object]bool)
	if key != nil {
		scoped[pass.TypesInfo.ObjectOf(key)] = true
	}
	if val != nil {
		scoped[pass.TypesInfo.ObjectOf(val)] = true
	}
	if as, ok := init.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				scoped[pass.TypesInfo.ObjectOf(id)] = true
			}
		}
	}
	dep := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && scoped[pass.TypesInfo.ObjectOf(id)] {
			dep = true
		}
		return !dep
	})
	return dep
}

// isAppendOfKey matches `dst = append(dst, key)` where key is the
// range variable: collecting keys to sort them afterwards.
func isAppendOfKey(pass *analysis.Pass, s *ast.AssignStmt, key *ast.Ident) bool {
	if key == nil {
		return false
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 || call.Ellipsis.IsValid() {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := pass.TypesInfo.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	dst, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	arg0, ok := call.Args[0].(*ast.Ident)
	if !ok || pass.TypesInfo.Uses[arg0] == nil || pass.TypesInfo.Uses[arg0] != pass.TypesInfo.ObjectOf(dst) {
		return false
	}
	arg1, ok := call.Args[1].(*ast.Ident)
	return ok && pass.TypesInfo.ObjectOf(arg1) == pass.TypesInfo.ObjectOf(key)
}

func isInteger(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
