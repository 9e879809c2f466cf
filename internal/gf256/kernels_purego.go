//go:build purego || (!amd64 && !arm64)

package gf256

// This file is the no-assembly configuration: the `purego` build tag
// (or an architecture without SIMD kernels) compiles the bulk kernels
// down to the portable word-wide loops alone. The arch hooks consume
// nothing and hand every byte to the generic tails.

// kernelName identifies the active kernel for Kernel and the
// per-kernel benchmark series.
var kernelName = "purego"

//pinlint:hotpath
func archMulSlice(t *table, src, dst []byte) int { return 0 }

//pinlint:hotpath
func archMulAddSlice(t *table, src, dst []byte) int { return 0 }

//pinlint:hotpath
func archXorSlice(src, dst []byte) int { return 0 }

//pinlint:hotpath
func archMulSum(coefs []byte, srcs [][]byte, dst []byte) int { return 0 }
