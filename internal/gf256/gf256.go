// Package gf256 implements arithmetic in the finite field GF(2⁸), the
// field Rabin's Information Dispersal Algorithm (package ida) does all
// its linear algebra in: polynomials over GF(2) modulo the primitive
// x⁸ + x⁴ + x³ + x² + 1 (0x11d), as in Reed–Solomon codes. Addition is
// XOR; Inv, Pow and the product tables come from discrete exp/log
// tables built once at init. Inv panics on the inverse of zero, always
// a programming error here (the dispersal matrices are invertible).
//
// The bulk kernels MulSlice, MulAddSlice and MulSumSlice are the inner
// loops of every dispersal, reconstruction and matrix inversion in the
// system. MulSumSlice is a matrix row times a set of slices, dst =
// Σᵢ cᵢ·srcᵢ, the row a reconstruction computes for each missing block.
// The portable kernels are table-driven: mulTables[c] is the 256-entry
// product table of c (64 KiB for all, built once at init), and the loops
// assemble eight products into a uint64 per word-wide XOR. MulSlow is
// the shift-and-reduce oracle the tables are verified against.
//
// On amd64 and arm64 the bulk of each slice goes to SIMD kernels
// (kernels_amd64.go / kernels_arm64.go), selected once at init by CPU
// feature and reported by Kernel: GFNI → AVX2 → SSSE3 → generic on
// amd64, NEON (baseline) on arm64. PSHUFB/TBL look up 16–64 bytes per
// step in the split nibble tables of nibTables; with GFNI and AVX-512
// one VGF2P8AFFINEQB multiplies 64 bytes by c's 8×8 bit matrix, and
// MulSumSlice is fused — each source read once, dst written once —
// where the other levels run it source by source. The `purego` tag
// removes the assembly and keeps the word-wide path, the reference of
// the SIMD parity tests and fuzzers.
package gf256

import "encoding/binary"

// Poly is the primitive reduction polynomial for the field,
// x⁸ + x⁴ + x³ + x² + 1.
const Poly = 0x11d

// Generator is the primitive element whose powers enumerate the
// multiplicative group of the field.
const Generator = 0x02

// table is the full product table of one fixed coefficient c:
// table[x] = c·x for every field element x. Indexing a *table by a byte
// never bounds-checks, which is what makes the bulk kernels fast.
type table [256]byte

var (
	expTable [512]byte // expTable[i] = Generator^i, doubled to avoid mod 255
	logTable [256]byte // logTable[x] = i such that Generator^i == x (x != 0)

	// mulTables[c][x] = c·x. 64 KiB total, built once at init, so
	// per-coefficient tables are cached process-wide.
	mulTables [256]table

	// nibTables[c] is the split nibble form of mulTables[c] the SIMD
	// kernels consume: bytes 0–15 map a low nibble x to c·x, bytes 16–31
	// map a high nibble x to c·(x<<4), so c·b = lo[b&15] ^ hi[b>>4]. 8 KiB
	// total, built at init alongside the byte tables.
	nibTables [256][32]byte
)

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		expTable[i] = x
		logTable[x] = byte(i)
		x = MulSlow(x, Generator)
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
	for c := 1; c < 256; c++ {
		logC := int(logTable[c])
		t := &mulTables[c]
		for x := 1; x < 256; x++ {
			t[x] = expTable[logC+int(logTable[x])]
		}
	}
	for c := 0; c < 256; c++ {
		t := &mulTables[c]
		nt := &nibTables[c]
		for x := 0; x < 16; x++ {
			nt[x] = t[x]
			nt[16+x] = t[x<<4]
		}
	}
}

// MulSlow multiplies by shift-and-reduce, without tables. It exists to
// cross-check the table construction in tests and as executable
// documentation of the field definition.
func MulSlow(a, b byte) byte {
	var p byte
	aa, bb := int(a), int(b)
	for bb > 0 {
		if bb&1 != 0 {
			p ^= byte(aa)
		}
		aa <<= 1
		if aa&0x100 != 0 {
			aa ^= Poly
		}
		bb >>= 1
	}
	return p
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return expTable[255-int(logTable[a])]
}

// Pow returns a^e in GF(2⁸) for e ≥ 0, with 0⁰ defined as 1.
func Pow(a byte, e int) byte {
	if e < 0 {
		panic("gf256: negative exponent")
	}
	if e == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return expTable[(int(logTable[a])*e)%255]
}

// MulSlice sets dst[i] = c · src[i] for every i. dst and src must have the
// same length; dst may alias src. It is the inner loop of matrix-vector
// products in package gfmat and is kept allocation-free.
//
//pinlint:hotpath
func MulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: MulSlice length mismatch")
	}
	if c == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	mulSliceTable(&mulTables[c], src, dst)
}

// mulSliceTable sets dst[i] = t[src[i]]: MulSlice with the coefficient
// lookup hoisted out.
//
//pinlint:hotpath
func mulSliceTable(t *table, src, dst []byte) {
	k := archMulSlice(t, src, dst)
	if k < len(src) {
		mulSliceGeneric(t, src[k:], dst[k:])
	}
}

// mulSliceGeneric is the portable word-wide kernel: eight products
// assembled into a uint64 per store. It is the whole implementation
// under the purego build tag and the tail handler behind the SIMD
// kernels (which only consume multiples of their block size).
//
//pinlint:hotpath
func mulSliceGeneric(t *table, src, dst []byte) {
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		s := src[i : i+8 : i+8]
		v := uint64(t[s[0]]) | uint64(t[s[1]])<<8 | uint64(t[s[2]])<<16 | uint64(t[s[3]])<<24 |
			uint64(t[s[4]])<<32 | uint64(t[s[5]])<<40 | uint64(t[s[6]])<<48 | uint64(t[s[7]])<<56
		binary.LittleEndian.PutUint64(dst[i:], v)
	}
	for i := n; i < len(src); i++ {
		dst[i] = t[src[i]]
	}
}

// MulAddSlice sets dst[i] ^= c · src[i] for every i, accumulating a scaled
// row into dst. dst and src must have the same length.
//
//pinlint:hotpath
func MulAddSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: MulAddSlice length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		xorSlice(src, dst)
		return
	}
	mulAddSliceTable(&mulTables[c], src, dst)
}

// mulAddSliceTable sets dst[i] ^= t[src[i]]: MulAddSlice with the
// coefficient lookup hoisted out.
//
//pinlint:hotpath
func mulAddSliceTable(t *table, src, dst []byte) {
	k := archMulAddSlice(t, src, dst)
	if k < len(src) {
		mulAddSliceGeneric(t, src[k:], dst[k:])
	}
}

// mulAddSliceGeneric is the portable word-wide accumulate kernel; see
// mulSliceGeneric.
//
//pinlint:hotpath
func mulAddSliceGeneric(t *table, src, dst []byte) {
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		s := src[i : i+8 : i+8]
		v := uint64(t[s[0]]) | uint64(t[s[1]])<<8 | uint64(t[s[2]])<<16 | uint64(t[s[3]])<<24 |
			uint64(t[s[4]])<<32 | uint64(t[s[5]])<<40 | uint64(t[s[6]])<<48 | uint64(t[s[7]])<<56
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:i+8])^v)
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= t[src[i]]
	}
}

// xorSlice sets dst[i] ^= src[i] for every i — MulAddSlice's c == 1
// accumulate, eight bytes per XOR. dst and src have the same length.
//
//pinlint:hotpath
func xorSlice(src, dst []byte) {
	k := archXorSlice(src, dst)
	if k < len(src) {
		xorSliceGeneric(src[k:], dst[k:])
	}
}

// xorSliceGeneric is the portable eight-bytes-per-XOR loop; see
// mulSliceGeneric.
//
//pinlint:hotpath
func xorSliceGeneric(src, dst []byte) {
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:i+8])^binary.LittleEndian.Uint64(src[i:i+8]))
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= src[i]
	}
}

// MulSumSlice sets dst = Σᵢ coefs[i]·srcs[i], byte by byte; with no
// nonzero coefficient it clears dst. coefs and srcs have the same
// length and every source dst's; sources may overlap each other, not
// dst.
//
//pinlint:hotpath
func MulSumSlice(coefs []byte, srcs [][]byte, dst []byte) {
	if len(coefs) != len(srcs) {
		panic("gf256: MulSumSlice coefficient count mismatch")
	}
	for _, src := range srcs {
		if len(src) != len(dst) {
			panic("gf256: MulSumSlice length mismatch")
		}
	}
	k := archMulSum(coefs, srcs, dst)
	set := false
	for i, c := range coefs {
		switch {
		case c == 0:
		case set:
			MulAddSlice(c, srcs[i][k:], dst[k:])
		default:
			MulSlice(c, srcs[i][k:], dst[k:])
			set = true
		}
	}
	if !set {
		clear(dst[k:])
	}
}

// Kernel reports which bulk-kernel implementation is active: "gfni",
// "avx2", "ssse3" (amd64), "neon" (arm64), or "purego" (the word-wide
// pure-Go path, selected by the purego build tag, by an architecture
// without assembly kernels, or by a CPU missing the required features).
func Kernel() string { return kernelName }
