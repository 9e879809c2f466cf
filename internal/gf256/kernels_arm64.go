//go:build arm64 && !purego

package gf256

// arm64 SIMD kernels. TBL (vector table lookup) is baseline ARMv8, so
// there is no feature detection: the NEON kernels are always active
// unless the purego tag removed them. The technique matches the amd64
// PSHUFB kernels — split nibble product tables, two lookups and an XOR
// per byte, 32 lanes per loop iteration.

// Assembly kernels (gf256_arm64.s). n must be a positive multiple of
// 32; callers guarantee it by masking the slice length.
//
//pinlint:hotpath
//go:noescape
func gfMulNEON(tab *[32]byte, src, dst *byte, n int)

//pinlint:hotpath
//go:noescape
func gfMulAddNEON(tab *[32]byte, src, dst *byte, n int)

//pinlint:hotpath
//go:noescape
func gfXorNEON(src, dst *byte, n int)

var kernelName = "neon"

// archMulSlice hands the aligned head of dst[i] = t[src[i]] to the
// NEON kernel and returns how many bytes it consumed.
//
//pinlint:hotpath
func archMulSlice(t *table, src, dst []byte) int {
	if kernelName != "neon" {
		return 0
	}
	n := len(src) &^ 31
	if n == 0 {
		return 0
	}
	gfMulNEON(&nibTables[t[1]], &src[0], &dst[0], n)
	return n
}

// archMulAddSlice hands the aligned head of dst[i] ^= t[src[i]] to the
// NEON kernel and returns how many bytes it consumed.
//
//pinlint:hotpath
func archMulAddSlice(t *table, src, dst []byte) int {
	if kernelName != "neon" {
		return 0
	}
	n := len(src) &^ 31
	if n == 0 {
		return 0
	}
	gfMulAddNEON(&nibTables[t[1]], &src[0], &dst[0], n)
	return n
}

// archXorSlice hands the aligned head of dst[i] ^= src[i] to the NEON
// kernel and returns how many bytes it consumed.
//
//pinlint:hotpath
func archXorSlice(src, dst []byte) int {
	if kernelName != "neon" {
		return 0
	}
	n := len(src) &^ 31
	if n == 0 {
		return 0
	}
	gfXorNEON(&src[0], &dst[0], n)
	return n
}

// archMulSum consumes nothing: NEON has no fused sum, so MulSumSlice
// runs source by source.
//
//pinlint:hotpath
func archMulSum(coefs []byte, srcs [][]byte, dst []byte) int { return 0 }
