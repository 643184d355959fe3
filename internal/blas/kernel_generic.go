//go:build !amd64

package blas

// kern is the micro-kernel; off amd64 it is the portable Go one.
func kern(k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	kernGo(k, a, lda, b, ldb, c, ldc)
}

// Off amd64 there is no panel kernel: no level-3 kernel takes its panel
// path, and kernPanel is never called.
const useAVX512 = false

func kernPanel(k int, a []float64, lda int, p []float64, c []float64, ldc int, store bool) {
	panic("blas: no panel kernel on this GOARCH")
}
