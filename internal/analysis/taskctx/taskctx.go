// Package taskctx enforces the per-job context contract on task bodies:
// code that runs inside a job must be able to observe that job's
// cancellation. A body that calls context.Background()/context.TODO(),
// or that shadows the supplied ctx with a context not derived from it,
// silently detaches itself from the failure state machine — a sibling
// panic, a deadline or a client disconnect can no longer stop it.
//
// A "task body" is (a) any function or function literal with a
// parameter of type *core.Worker (the xkaapi.Proc execution context —
// by construction such code runs inside a task), or (b) a function
// literal passed directly to a spawn-like entrypoint of any paradigm
// layer (Spawn, SpawnTask, Submit, ParallelCtx, InsertTaskCtx, ...).
package taskctx

import (
	"go/ast"
	"go/token"
	"go/types"

	"xkaapi/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "taskctx",
	Doc: "task and region bodies must honor the per-job context: no " +
		"context.Background()/context.TODO() inside a body, and no shadowing " +
		"of the supplied ctx by a context not derived from it — otherwise the " +
		"body cannot observe job cancellation.",
	Run: run,
}

// workerPath is the package defining the execution-context type handed to
// every task body (xkaapi.Proc is an alias of core.Worker).
const workerPath = "xkaapi/internal/core"

// entrypoints are the spawn-like call names of the paradigm layers: a
// function literal passed to one of these is a task, region or loop body.
var entrypoints = map[string]bool{
	"Spawn": true, "SpawnTask": true, "NewAdaptiveTask": true,
	"Submit": true, "SubmitCtx": true,
	"Run": true, "RunCtx": true, "RunRoot": true,
	"InsertTask": true, "InsertTaskCtx": true,
	"Parallel": true, "ParallelCtx": true,
	"ParallelFor": true, "ParallelForCtx": true,
	"Do": true, "DoCtx": true,
	"ForEach": true, "ForEachCtx": true, "Foreach": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		bodies := collectBodies(pass, f)
		for node := range bodies {
			checkBody(pass, node, bodies)
		}
	}
	return nil
}

// collectBodies returns the set of task-body function nodes of one file
// (*ast.FuncDecl or *ast.FuncLit).
func collectBodies(pass *analysis.Pass, f *ast.File) map[ast.Node]bool {
	bodies := make(map[ast.Node]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil && hasWorkerParam(pass, n.Type) {
				bodies[n] = true
			}
		case *ast.FuncLit:
			if hasWorkerParam(pass, n.Type) {
				bodies[n] = true
			}
		case *ast.CallExpr:
			if entrypoints[analysis.CalleeName(n)] {
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						bodies[lit] = true
					}
				}
			}
		}
		return true
	})
	return bodies
}

func hasWorkerParam(pass *analysis.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if name, ok := analysis.NamedFromPkg(t, workerPath); ok && name == "Worker" {
			return true
		}
	}
	return false
}

// checkBody walks one task body, skipping nested nodes that are bodies
// themselves (they are checked on their own pass, avoiding duplicates).
func checkBody(pass *analysis.Pass, body ast.Node, bodies map[ast.Node]bool) {
	var block *ast.BlockStmt
	switch n := body.(type) {
	case *ast.FuncDecl:
		block = n.Body
	case *ast.FuncLit:
		block = n.Body
	}
	ast.Inspect(block, func(n ast.Node) bool {
		if n != nil && n != body && bodies[n] {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			for _, fn := range [...]string{"Background", "TODO"} {
				if analysis.IsPkgFunc(pass.TypesInfo, n, "context", fn) {
					pass.Reportf(n.Pos(),
						"task body calls context.%s: use the supplied ctx (or "+
							"Proc.Context) so the body observes job cancellation", fn)
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						checkShadow(pass, id, n.Rhs)
					}
				}
			}
		case *ast.ValueSpec:
			for _, id := range n.Names {
				checkShadow(pass, id, n.Values)
			}
		}
		return true
	})
}

// checkShadow reports a definition of a context.Context variable whose
// name shadows a context.Context already in scope, unless the new value
// is derived from the shadowed one (the RHS mentions it, e.g.
// `ctx := context.WithTimeout(ctx, d)`) or obtained from the job
// (`ctx := p.Context()` — any .Context() call counts as derivation).
func checkShadow(pass *analysis.Pass, id *ast.Ident, rhs []ast.Expr) {
	obj := pass.TypesInfo.Defs[id]
	if obj == nil || !isContextType(obj.Type()) {
		return
	}
	inner := pass.Pkg.Scope().Innermost(id.Pos())
	if inner == nil {
		return
	}
	_, outer := inner.LookupParent(id.Name, id.Pos())
	if outer == nil || outer == obj {
		return
	}
	if _, ok := outer.(*types.Var); !ok || !isContextType(outer.Type()) {
		return
	}
	for _, e := range rhs {
		if derivesFrom(pass, e, outer) {
			return
		}
	}
	pass.Reportf(id.Pos(),
		"task body shadows %q with a context not derived from it: derive the "+
			"new context from the supplied one (context.With* on %q, or "+
			"Proc.Context) so job cancellation still reaches this body", id.Name, id.Name)
}

// derivesFrom reports whether expr uses outer (the shadowed context) or
// calls a .Context() accessor.
func derivesFrom(pass *analysis.Pass, expr ast.Expr, outer types.Object) bool {
	derived := false
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if pass.TypesInfo.Uses[n] == outer {
				derived = true
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Context" {
				derived = true
			}
		}
		return !derived
	})
	return derived
}

func isContextType(t types.Type) bool {
	name, ok := analysis.NamedFromPkg(t, "context")
	return ok && name == "Context"
}
