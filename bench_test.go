package xkaapi_test

import (
	"runtime"
	"testing"

	"xkaapi/internal/figs"
)

// BenchmarkFigures times every arm of every row of the figure table
// (internal/figs) at its small instance on GOMAXPROCS workers, one
// sub-benchmark per BenchmarkFigures/<fig>/<panel>/<arm>. Every repetition
// is checked against its panel's sequential arm, and ns/op is the median
// repetition's measured part: the solve the figure plots, without the
// set-up of its input.
//
//	go test -run '^$' -bench Figures .
func BenchmarkFigures(b *testing.B) {
	for _, f := range figs.Figures {
		for _, c := range f.Cases(runtime.GOMAXPROCS(0)) {
			b.Run(f.Name+"/"+c.Name, func(b *testing.B) {
				s, err := c.Run(b.N)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(s*1e9, "ns/op")
			})
		}
	}
}
