// Command xkvet is the module's multichecker: it runs the custom static
// analyzers of internal/analysis — the concurrency-invariant suite no
// stock compiler or vet pass checks — over the given package patterns
// and exits non-zero when any invariant is violated. It is the gating
// static tier behind `make lint` and ci.sh.
//
// Usage:
//
//	xkvet [-list] [packages]
//
// With no patterns it checks ./.... -list prints the analyzers and what
// each enforces. Diagnostics print as file:line:col: analyzer: message;
// a line can suppress one deliberately with `//xk:allow(<analyzer>): why`.
//
// The driver loads packages through `go list -export` plus the standard
// library's go/parser, go/types and gc importer, so it needs no module
// dependencies; the analyzer API mirrors golang.org/x/tools/go/analysis,
// which is why there is no go/analysis unitchecker shim here — porting
// to `go vet -vettool` is mechanical the day that dependency is wanted.
package main

import (
	"flag"
	"fmt"
	"os"

	"xkaapi/internal/analysis"
	"xkaapi/internal/analysis/atomicpad"
	"xkaapi/internal/analysis/hotpath"
	"xkaapi/internal/analysis/jobfailsingleton"
	"xkaapi/internal/analysis/taskctx"
	"xkaapi/internal/analysis/unused"
)

// analyzers is the gating suite, in diagnostic-output order.
var analyzers = []*analysis.Analyzer{
	jobfailsingleton.Analyzer,
	taskctx.Analyzer,
	hotpath.Analyzer,
	atomicpad.Analyzer,
	unused.Analyzer,
}

func main() {
	os.Exit(run())
}

func run() int {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xkvet: %v\n", err)
		return 2
	}
	bad := 0
	for _, pkg := range pkgs {
		diags, err := analysis.Check(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xkvet: %v\n", err)
			return 2
		}
		for _, d := range diags {
			fmt.Println(d)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "xkvet: %d violation(s) in %d package(s) checked\n", bad, len(pkgs))
		return 1
	}
	return 0
}
