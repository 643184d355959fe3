//go:build !amd64

package blas

// kern is the micro-kernel; off amd64 it is the portable Go one.
func kern(k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	kernGo(k, a, lda, b, ldb, c, ldc)
}
