//go:build !amd64

package blas

// Off amd64 kern is kernGo and there is no panel path, so no test takes
// the fused chain as its oracle.
const useFMA = false
