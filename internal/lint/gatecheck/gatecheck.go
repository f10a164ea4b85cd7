// Package gatecheck enforces the verify-before-push contract: every call
// site that pushes a graph onto the data plane — UpdateWeights, LoadModel, and
// the two model builders under them, core.Install and Model.WithWeights (what
// they return is published by a pointer store that takes no graph) — must be
// dominated by a static-verification gate, so no code path can deploy a model the verifier
// never saw.
//
// The gates are graphcheck's entry points and their facade re-exports:
// Verify, VerifyWith, Check, Compatible, VerifyGraph, VerifyGraphWith,
// CheckGraph, GraphCompatible — plus the tape-side VerifyTape/CheckTape.
// "Dominated" is approximated syntactically: a gate call must appear
// earlier in the same enclosing function as the push call. Functions named
// like a push entry point (UpdateWeights, LoadModel, Install, WithWeights) are the
// push boundary itself, not a caller of one, and are exempt — the contract
// binds the layers above them.
//
// Where domination is real but non-local — a helper pushing a graph its
// caller already verified, a rollback to a previously pushed (hence
// previously verified) graph — the call site carries a
// `//gatecheck:verified` annotation stating where the verification
// happened, reviewable in place. The annotation covers a call starting on
// the same line or the line after.
package gatecheck

import (
	"fmt"
	"go/ast"
	"go/token"

	"taurus/internal/lint"
)

// pushNames are the callee names that place a graph onto the data plane.
var pushNames = map[string]bool{
	"UpdateWeights": true,
	"LoadModel":     true,
	"Install":       true,
	"WithWeights":   true,
}

// gateNames are the callee names that statically verify a graph (or its
// compiled tape) — graphcheck/tapecheck entry points and the taurus facade's
// re-exports. VerifyWith is graphcheck's alone: tapecheck takes no options.
var gateNames = map[string]bool{
	"Verify":          true,
	"VerifyWith":      true,
	"Check":           true,
	"Compatible":      true,
	"VerifyGraph":     true,
	"VerifyGraphWith": true,
	"CheckGraph":      true,
	"GraphCompatible": true,
	"VerifyTape":      true,
	"CheckTape":       true,
}

// Analyzer is the verify-before-push checker.
var Analyzer = &lint.Analyzer{
	Name: "gatecheck",
	Doc:  "push call sites (UpdateWeights/LoadModel/Install/WithWeights) must be dominated by a graphcheck gate",
	Run:  run,
}

func run(f *lint.File) []lint.Diagnostic {
	verified := lint.AnnotatedLines(f, "gatecheck:verified")
	var diags []lint.Diagnostic
	for _, decl := range f.File.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		if pushNames[fn.Name.Name] {
			continue // the push boundary itself; its callers carry the contract
		}
		diags = append(diags, checkFunc(f, fn, verified)...)
	}
	return diags
}

func checkFunc(f *lint.File, fn *ast.FuncDecl, verified map[int]bool) []lint.Diagnostic {
	// One pass collects the gate positions, a second judges the push sites:
	// a gate anywhere earlier in the function dominates (syntactic
	// approximation — loops and branches are not modelled).
	var gates []token.Pos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && gateNames[lint.CalleeName(call.Fun)] {
			gates = append(gates, call.Pos())
		}
		return true
	})
	dominated := func(pos token.Pos) bool {
		for _, g := range gates {
			if g < pos {
				return true
			}
		}
		return false
	}

	var diags []lint.Diagnostic
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !pushNames[lint.CalleeName(call.Fun)] {
			return true
		}
		if dominated(call.Pos()) {
			return true
		}
		pos := f.Fset.Position(call.Pos())
		if verified[pos.Line] || verified[pos.Line-1] {
			return true
		}
		diags = append(diags, lint.Diagnostic{
			Analyzer: "gatecheck",
			Pos:      pos,
			Msg: fmt.Sprintf("%s call in %s is not dominated by a verification gate: run graphcheck.Verify/Compatible (or a facade equivalent) on the graph first, or annotate the call with //gatecheck:verified and say where it was verified",
				lint.CalleeName(call.Fun), fn.Name.Name),
		})
		return true
	})
	return diags
}
