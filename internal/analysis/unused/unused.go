// Package unused reports unexported functions and methods that no
// non-test file of their package references: code that only a test, or
// nothing at all, still calls. Such code is dead to the program, and left
// alone it builds up (a helper outlives its last caller, a method survives
// the refactor that removed its use). Exported identifiers are out of
// scope: another package may call them.
//
// A method counts as referenced when any method of the same name is
// called or taken as a value in the package, through a concrete type or
// an interface: an unexported method can satisfy only an interface of its
// own package, and matching by name keeps that case without resolving
// interface satisfaction. A function's references from inside its own
// body (recursion) do not count. Declarations without a body are
// implemented in assembly and are skipped.
package unused

import (
	"go/ast"
	"go/types"

	"xkaapi/internal/analysis"
)

// Analyzer is the unused check.
var Analyzer = &analysis.Analyzer{
	Name: "unused",
	Doc: "report unexported functions and methods that no non-test file " +
		"of their package references",
	Run: run,
}

func run(pass *analysis.Pass) error {
	used := make(map[*types.Func]bool)
	usedMethods := make(map[string]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			var self types.Object
			if fd, ok := decl.(*ast.FuncDecl); ok {
				self = pass.TypesInfo.Defs[fd.Name]
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				fn = fn.Origin()
				if fn == self {
					return true
				}
				used[fn] = true
				if fn.Type().(*types.Signature).Recv() != nil {
					usedMethods[fn.Name()] = true
				}
				return true
			})
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.IsExported() {
				continue
			}
			name := fd.Name.Name
			if name == "_" || (fd.Recv == nil && (name == "init" || name == "main" && pass.Pkg.Name() == "main")) {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || used[fn] {
				continue
			}
			if fd.Recv != nil {
				if usedMethods[name] {
					continue
				}
				pass.Reportf(fd.Name.Pos(), "method %s is unused: no non-test file of package %s references it", name, pass.Pkg.Name())
				continue
			}
			pass.Reportf(fd.Name.Pos(), "function %s is unused: no non-test file of package %s references it", name, pass.Pkg.Name())
		}
	}
	return nil
}
