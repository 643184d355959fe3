// Command xkfig regenerates the paper's figures, and the ablations of its
// design, from the rows of internal/figs: one table per panel, every arm's
// result checked against the sequential arm's on every repetition. Run it
// with -h for the list of figures.
//
// Usage:
//
//	xkfig [-cores 1,2,4] [-reps 3] [-size small|default|paper] [FIG...]
//
// With no FIG it runs every row in order. -size small finishes in seconds;
// paper is the instance the paper states (fib(35); the skyline matrix of
// order 59462 with BS=88; NB 128 and 224), and default where it states none.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"xkaapi/internal/figs"
)

func main() {
	cores := flag.String("cores", "", "comma-separated core counts (default 1,2,4,... up to GOMAXPROCS); Fig. 2 runs on the largest")
	reps := flag.Int("reps", 3, "timed repetitions per point after one warm-up (median reported)")
	size := flag.String("size", "default", "instance: small, default or paper")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "usage: xkfig [-cores LIST] [-reps N] [-size small|default|paper] [FIG...]\n\nfigures:\n")
		for _, f := range figs.Figures {
			fmt.Fprintf(out, "  %-10s %s\n", f.Name, f.Title)
		}
		fmt.Fprintf(out, "\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	cs, err := figs.ParseCores(*cores)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xkfig:", err)
		os.Exit(2)
	}
	run := figs.Figures
	if flag.NArg() > 0 {
		run = nil
		for _, name := range flag.Args() {
			i := slices.IndexFunc(figs.Figures, func(f figs.Figure) bool { return f.Name == name })
			if i < 0 {
				fmt.Fprintf(os.Stderr, "xkfig: unknown figure %q\n", name)
				flag.Usage()
				os.Exit(2)
			}
			run = append(run, figs.Figures[i])
		}
	}
	for _, f := range run {
		if err := f.Print(os.Stdout, cs, *reps, *size); err != nil {
			fmt.Fprintln(os.Stderr, "xkfig:", err)
			os.Exit(1)
		}
	}
}
