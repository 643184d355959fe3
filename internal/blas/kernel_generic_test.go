//go:build !amd64

package blas

// Off amd64 kern is kernGo, so no test takes the fused chain as its oracle.
const useFMA = false
