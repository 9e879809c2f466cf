// Package gf256 implements arithmetic in the finite field GF(2⁸).
//
// The field is realized as polynomials over GF(2) modulo the primitive
// polynomial x⁸ + x⁴ + x³ + x² + 1 (0x11d), the polynomial commonly used
// by Reed–Solomon codes. Rabin's Information Dispersal Algorithm (package
// ida) performs all of its linear algebra over this field: addition is
// XOR, and multiplication is carried out through discrete exp/log tables
// so that a multiply costs two table lookups and one addition.
//
// All operations are total: Inv panics on the inverse of zero, which
// in this codebase always indicates a programming error (the dispersal
// matrices are constructed to be invertible).
//
// The bulk kernels MulSlice and MulAddSlice are the inner loops of every
// dispersal, reconstruction and matrix inversion in the system. They are
// table-driven: MulTable(c) yields the full 256-entry product table of a
// coefficient (64 KiB for all 256 tables, built once at init), turning a
// per-byte multiply into a single dependent load, and the loops assemble
// eight products at a time into a uint64 so the accumulate into dst is
// one word-wide XOR instead of eight read-modify-write byte stores.
// MulSlow remains the shift-and-reduce oracle the tables are verified
// against.
//
// On amd64 and arm64 the bulk of each slice is handed to
// architecture-specific SIMD kernels (kernels_amd64.go /
// kernels_arm64.go): PSHUFB/TBL nibble-table lookups process 16–64
// bytes per step using the split low/high-nibble product tables in
// nibTables. The kernel is selected once at init by CPU-feature
// detection (AVX2 → SSSE3 → generic on amd64; NEON is baseline on
// arm64) and Kernel reports the choice. Building with the `purego` tag
// removes the assembly entirely and keeps the word-wide pure-Go path,
// which also serves as the cross-check reference for the SIMD parity
// tests and fuzzers.
package gf256

import "encoding/binary"

// Poly is the primitive reduction polynomial for the field,
// x⁸ + x⁴ + x³ + x² + 1.
const Poly = 0x11d

// Generator is the primitive element whose powers enumerate the
// multiplicative group of the field.
const Generator = 0x02

// Table is the full product table of one fixed coefficient c:
// Table[x] = c·x for every field element x. Indexing a *Table by a byte
// never bounds-checks, which is what makes the bulk kernels fast.
type Table [256]byte

var (
	expTable [512]byte // expTable[i] = Generator^i, doubled to avoid mod 255
	logTable [256]byte // logTable[x] = i such that Generator^i == x (x != 0)

	// mulTables[c][x] = c·x. 64 KiB total, built once at init; every
	// MulTable call returns a pointer into this array, so per-coefficient
	// tables are cached process-wide and never recomputed.
	mulTables [256]Table

	// nibTables[c] is the split nibble form of mulTables[c] the SIMD
	// kernels consume: bytes 0–15 map a low nibble x to c·x, bytes 16–31
	// map a high nibble x to c·(x<<4), so c·b = lo[b&15] ^ hi[b>>4]. 8 KiB
	// total, built at init alongside the byte tables.
	nibTables [256][32]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
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

// MulTable returns the cached 256-entry product table of c: the returned
// table maps x to c·x. The table is shared and read-only; callers must
// not modify it. Holding the table amortizes the coefficient setup across
// many MulAddSlice calls with the same c (the per-row pattern of matrix
// encoding).
func MulTable(c byte) *Table { return &mulTables[c] }

// mul returns a · b in GF(2⁸).
func mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
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
func mulSliceTable(t *Table, src, dst []byte) {
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
func mulSliceGeneric(t *Table, src, dst []byte) {
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
		XorSlice(src, dst)
		return
	}
	mulAddSliceTable(&mulTables[c], src, dst)
}

// MulAddSliceTable sets dst[i] ^= t[src[i]] for a table obtained from
// MulTable — MulAddSlice with the coefficient lookup hoisted out, the
// form the ida encode rows use.
//
//pinlint:hotpath
func MulAddSliceTable(t *Table, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: MulAddSliceTable length mismatch")
	}
	mulAddSliceTable(t, src, dst)
}

//pinlint:hotpath
func mulAddSliceTable(t *Table, src, dst []byte) {
	k := archMulAddSlice(t, src, dst)
	if k < len(src) {
		mulAddSliceGeneric(t, src[k:], dst[k:])
	}
}

// mulAddSliceGeneric is the portable word-wide accumulate kernel; see
// mulSliceGeneric.
//
//pinlint:hotpath
func mulAddSliceGeneric(t *Table, src, dst []byte) {
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

// XorSlice sets dst[i] ^= src[i] for every i — the c == 1 accumulate,
// eight bytes per XOR. dst and src must have the same length.
//
//pinlint:hotpath
func XorSlice(src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: XorSlice length mismatch")
	}
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

// Kernel reports which bulk-kernel implementation is active:
// "avx2", "ssse3" (amd64), "neon" (arm64), or "purego" (the word-wide
// pure-Go path, selected by the purego build tag, by an architecture
// without assembly kernels, or by a CPU missing the required features).
func Kernel() string { return kernelName }
