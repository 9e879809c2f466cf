//go:build amd64 && !purego

package gf256

// amd64 SIMD kernel selection. The SSSE3 and AVX2 kernels use the
// PSHUFB nibble-table technique: the 32-byte nibTables entry of a
// coefficient is split into a low-nibble and a high-nibble 16-lane
// product table, each slice byte is split into nibbles, and two
// parallel table lookups plus one XOR yield 16 (SSSE3) or 32 (AVX2, two
// blocks per loop) products per step. The GFNI kernels need no tables:
// multiplying by c is linear over GF(2), so c's 8×8 bit matrix in
// gfniMatrices turns one VGF2P8AFFINEQB into 64 products. (VGF2P8MULB
// does not apply: it reduces by 0x11b, not the field's 0x11d.) The
// choice is made once at init from CPUID: GFNI with AVX-512 (and
// OS-enabled ZMM state) beats AVX2 (with OS-enabled YMM state) beats
// SSSE3 beats the generic word-wide loop; Kernel reports the winner.

// Assembly kernels (gf256_amd64.s). n must be a positive multiple of
// the kernel's block size (16 for SSSE3, 32 for AVX2, 64 for GFNI, 16
// for the SSE2 XOR); callers guarantee it by masking the slice length.
//
//pinlint:hotpath
//go:noescape
func gfMulSSSE3(tab *[32]byte, src, dst *byte, n int)

//pinlint:hotpath
//go:noescape
func gfMulAddSSSE3(tab *[32]byte, src, dst *byte, n int)

//pinlint:hotpath
//go:noescape
func gfMulAVX2(tab *[32]byte, src, dst *byte, n int)

//pinlint:hotpath
//go:noescape
func gfMulAddAVX2(tab *[32]byte, src, dst *byte, n int)

//pinlint:hotpath
//go:noescape
func gfMulGFNI(mat *uint64, src, dst *byte, n int)

//pinlint:hotpath
//go:noescape
func gfMulAddGFNI(mat *uint64, src, dst *byte, n int)

//pinlint:hotpath
//go:noescape
func gfMulSumGFNI(mats *[256]uint64, coefs *byte, srcs *[]byte, k int, dst *byte, n int)

//pinlint:hotpath
//go:noescape
func gfXorSSE2(src, dst *byte, n int)

//pinlint:hotpath
//go:noescape
func gfXorAVX2(src, dst *byte, n int)

// cpuidex executes CPUID with the given leaf and subleaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

// kernelLevel enumerates the amd64 kernel choices, best last.
type kernelLevel int

const (
	kernelGeneric kernelLevel = iota
	kernelSSSE3
	kernelAVX2
	kernelGFNI
)

var (
	kernel     kernelLevel
	kernelName string

	// levelNames and blockSizes are each level's Kernel name and the
	// block its kernels consume a multiple of.
	levelNames = [...]string{"purego", "ssse3", "avx2", "gfni"}
	blockSizes = [...]int{0, 16, 32, 64}

	// gfniMatrices[c] is the bit matrix of x ↦ c·x in VGF2P8AFFINEQB's
	// layout: byte 7−i selects the bits of x whose products by c have
	// bit i set. Built from MulSlow, so it depends on no other table.
	gfniMatrices = func() (mats [256]uint64) {
		for c := range mats {
			for i := 0; i < 8; i++ {
				for k := 0; k < 8; k++ {
					if MulSlow(byte(c), 1<<k)>>i&1 != 0 {
						mats[c] |= 1 << (8*(7-i) + k)
					}
				}
			}
		}
		return mats
	}()
)

func init() {
	kernel = detectKernel()
	kernelName = levelNames[kernel]
}

// detectKernel probes CPUID for SSSE3, AVX2 and GFNI with AVX-512F (the
// last two only count when the OS has enabled YMM, and for GFNI also
// opmask and ZMM, state via XSAVE, per the standard OSXSAVE + XCR0
// check).
func detectKernel() kernelLevel {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 1 {
		return kernelGeneric
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const (
		ssse3Bit   = 1 << 9
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if maxLeaf >= 7 && ecx1&osxsaveBit != 0 && ecx1&avxBit != 0 {
		xcr0, _ := xgetbv()
		ymmEnabled := xcr0&0x6 == 0x6   // XMM and YMM state saved by the OS
		zmmEnabled := xcr0&0xe6 == 0xe6 // and opmask, ZMM0–15 upper halves, ZMM16–31
		_, ebx7, ecx7, _ := cpuidex(7, 0)
		const avx2Bit, avx512fBit, gfniBit = 1 << 5, 1 << 16, 1 << 8
		switch {
		case zmmEnabled && ebx7&avx2Bit != 0 && ebx7&avx512fBit != 0 && ecx7&gfniBit != 0:
			return kernelGFNI
		case ymmEnabled && ebx7&avx2Bit != 0:
			return kernelAVX2
		}
	}
	if ecx1&ssse3Bit != 0 {
		return kernelSSSE3
	}
	return kernelGeneric
}

// head returns how much of an n-byte slice the active SIMD kernel
// takes: the longest multiple of its block, 0 under the generic level.
//
//pinlint:hotpath
func head(n int) int {
	if kernel == kernelGeneric {
		return 0
	}
	return n &^ (blockSizes[kernel] - 1)
}

// archMulSlice hands the aligned head of dst[i] = t[src[i]] to the
// active SIMD kernel and returns how many bytes it consumed.
//
//pinlint:hotpath
func archMulSlice(t *table, src, dst []byte) int {
	n := head(len(src))
	switch {
	case n == 0:
	case kernel == kernelGFNI:
		gfMulGFNI(&gfniMatrices[t[1]], &src[0], &dst[0], n)
	case kernel == kernelAVX2:
		gfMulAVX2(&nibTables[t[1]], &src[0], &dst[0], n)
	default:
		gfMulSSSE3(&nibTables[t[1]], &src[0], &dst[0], n)
	}
	return n
}

// archMulAddSlice hands the aligned head of dst[i] ^= t[src[i]] to the
// active SIMD kernel and returns how many bytes it consumed.
//
//pinlint:hotpath
func archMulAddSlice(t *table, src, dst []byte) int {
	n := head(len(src))
	switch {
	case n == 0:
	case kernel == kernelGFNI:
		gfMulAddGFNI(&gfniMatrices[t[1]], &src[0], &dst[0], n)
	case kernel == kernelAVX2:
		gfMulAddAVX2(&nibTables[t[1]], &src[0], &dst[0], n)
	default:
		gfMulAddSSSE3(&nibTables[t[1]], &src[0], &dst[0], n)
	}
	return n
}

// archXorSlice hands the aligned head of dst[i] ^= src[i] to the XOR
// kernel (SSE2 under the ssse3 kernel, AVX2 under avx2 and gfni) and
// returns how many bytes it consumed. When the forced or detected
// kernel is the generic one, the whole slice goes to the pure-Go loop
// so the "purego" label always means exactly that.
//
//pinlint:hotpath
func archXorSlice(src, dst []byte) int {
	n := head(len(src))
	switch {
	case n == 0:
	case kernel == kernelSSSE3:
		gfXorSSE2(&src[0], &dst[0], n)
	default:
		gfXorAVX2(&src[0], &dst[0], n)
	}
	return n
}

// archMulSum hands the aligned head of dst = Σᵢ coefs[i]·srcs[i] to the
// fused GFNI kernel and returns how many bytes it consumed; the other
// levels consume nothing and leave the sum to the per-source loop.
//
//pinlint:hotpath
func archMulSum(coefs []byte, srcs [][]byte, dst []byte) int {
	if kernel != kernelGFNI || len(srcs) == 0 {
		return 0
	}
	n := head(len(dst))
	if n > 0 {
		gfMulSumGFNI(&gfniMatrices, &coefs[0], &srcs[0], len(srcs), &dst[0], n)
	}
	return n
}
