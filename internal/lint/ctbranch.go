package lint

import (
	"go/ast"
	"go/types"
)

// ctExemptPkgs are the sanctioned open points: reconstruction,
// aggregation, and share bookkeeping legitimately compare and index
// share material while opening it. Everywhere else, control flow must
// be independent of secret-derived values — a branch is a timing/trace
// side channel no share ever pays for in the privacy proof.
var ctExemptPkgs = map[string]bool{
	"sqm/internal/bgw":    true,
	"sqm/internal/shamir": true,
	"sqm/internal/secagg": true,
	"sqm/internal/beaver": true,
}

// AnalyzerCTBranch enforces the constant-time control-flow invariant:
// no if/for/switch condition, case expression, or map/slice index may
// depend on a secret share or a value derived from one (through any
// call depth), outside the sanctioned open points. Branching on secret
// data leaks it through timing, trace events, and message patterns that
// the distributed-DP analysis does not model.
var AnalyzerCTBranch = &Analyzer{
	Name:      "ctbranch",
	Doc:       "control flow (if/for/switch/case) or container indexing conditioned on secret-share-derived values outside sanctioned open points",
	Severity:  SeverityError,
	RunModule: runCTBranch,
	Explain: &Explanation{
		Invariant: "Control flow must be data-oblivious with respect to shares: conditions, switch tags, case expressions, and map/slice index operands may not depend on share-typed values or values derived from them, except inside the open/reconstruct packages (bgw, shamir, secagg) where revealing is the point. Secret-dependent branches leak through timing and trace side channels.",
		Sources: []string{
			"share-typed values (the sharetaint type table) used as values, not presence checks",
			"values derived from share material, e.g. the elements AdditiveShares returns on a bgw.Shared or through bgw.Evaluator, through any call depth",
		},
		Sinks: []string{
			"if / for / switch conditions, switch tags, case expressions",
			"map, slice, array, and string index operands",
		},
		Sanitizers: []string{
			"sanctioned opens (same registry as sharetaint, e.g. (circuit.Result).Opened): opened values are public outputs and may steer control flow",
			"nil-comparisons (presence checks) and len/cap (public shape) never count as value reads",
		},
		Example: `vote.go:21:5: ctbranch: control flow conditioned on secret-derived value [source (bgw.Shared).AdditiveShares (vote.go:12) → param shs of leakBit (vote.go:17) → result 0 of leakBit (vote.go:18) → condition (vote.go:21)]`,
	},
}

func runCTBranch(mp *ModulePass) {
	m := mp.Module
	res := m.Propagate(TaintSpec{
		TypeSources: shareTypes,
		FuncSources: shareFuncSources,
		Sanitizers:  shareSanitizers,
	})
	for _, c := range m.Conds {
		if ctExemptPkgs[c.Pkg.Path] {
			continue
		}
		expr, why := secretCondUse(m, res, c.Pkg, c.Fn, c.Expr)
		if expr == nil {
			continue
		}
		what := "control flow"
		if c.Kind == "index" {
			what = "container indexing"
		}
		mp.Reportf(expr.Pos(), "%s conditioned on secret-derived value outside sanctioned open points; make the %s data-oblivious or open the value first [%s → %s (%s)]",
			what, c.Kind, why, condKindDesc(c.Kind), m.PosString(expr.Pos()))
	}
}

func condKindDesc(kind string) string {
	if kind == "index" {
		return "index operand"
	}
	return "condition"
}

// secretCondUse walks a condition/index expression looking for a
// secret value read: an identifier or call result whose node is
// tainted, or any sub-expression whose own static type contains a
// share type. Nil-comparisons are presence checks and stay silent;
// selector reads judge their own field type (a public field of a
// struct that also holds shares is fine to branch on).
func secretCondUse(m *Module, res *TaintResult, pkg *Package, fn *types.Func, e ast.Expr) (ast.Expr, string) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if n := m.objNode(pkg, fn, x); n != nil && res.Tainted(n) {
			return x, res.Witness(n)
		}
	case *ast.BinaryExpr:
		if isNilComparison(x) {
			return nil, ""
		}
		if sub, w := secretCondUse(m, res, pkg, fn, x.X); sub != nil {
			return sub, w
		}
		return secretCondUse(m, res, pkg, fn, x.Y)
	case *ast.UnaryExpr:
		return secretCondUse(m, res, pkg, fn, x.X)
	case *ast.SelectorExpr:
		// Field reads draw from the module-wide field node, so only the
		// selected field's own taint decides: w.Round on a share-holding
		// wrapper is public, w.Share is not.
		for _, n := range m.Leaves(pkg, fn, x) {
			if res.Tainted(n) {
				return x, res.Witness(n)
			}
		}
		if tv, ok := pkg.Info.Types[x]; ok && tv.Type != nil {
			if name, secret := containsSecretType(tv.Type); secret {
				return x, name + " field read"
			}
		}
	case *ast.IndexExpr:
		// Reading an element out of tainted share material and branching
		// on it is the leak; judge the container.
		for _, n := range m.Leaves(pkg, fn, x.X) {
			if res.Tainted(n) {
				return x, res.Witness(n)
			}
		}
		return secretCondUse(m, res, pkg, fn, x.Index)
	case *ast.CallExpr:
		if b := builtinName(pkg, x); b == "len" || b == "cap" {
			return nil, "" // shape is public
		}
		for _, n := range m.callResultNodes(pkg, fn, x) {
			if res.Tainted(n) {
				return x, res.Witness(n)
			}
		}
		if tv, ok := pkg.Info.Types[x]; ok && tv.Type != nil {
			if name, secret := containsSecretType(tv.Type); secret {
				return x, name + " call result"
			}
		}
	case *ast.TypeAssertExpr:
		return secretCondUse(m, res, pkg, fn, x.X)
	}
	// Direct value use of a share-typed expression (non-selector forms).
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.CompositeLit, *ast.StarExpr:
		if tv, ok := pkg.Info.Types[ast.Unparen(e)]; ok && tv.Type != nil {
			if name, secret := containsSecretType(tv.Type); secret {
				return e, name + " value"
			}
		}
	}
	return nil, ""
}
