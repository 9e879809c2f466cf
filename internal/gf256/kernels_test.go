package gf256

// Kernel parity suite: every compiled kernel (gfni/avx2/ssse3/neon and
// the generic word-wide path) must agree with the pure-Go reference —
// bit-exactly — on every coefficient, on unaligned heads, short tails
// and lengths straddling every SIMD block boundary. SIMD kernels break
// precisely at those edges, so the length set concentrates there.
// FuzzKernelParity extends the same diff to arbitrary fuzzer-chosen
// lengths and offsets, and to the fused MulSumSlice.

import (
	"bytes"
	"slices"
	"testing"
)

// kernelLevels is every SIMD level some build compiles, best first.
var kernelLevels = []string{"gfni", "avx2", "ssse3", "neon"}

// testKernels returns the kernel names the running CPU can execute,
// always ending with "purego" (the reference), and the levels it skips.
func testKernels(t testing.TB) (run, skipped []string) {
	prev := Kernel()
	t.Cleanup(func() { setKernelForTest(prev) })
	for _, name := range kernelLevels {
		if setKernelForTest(name) {
			run = append(run, name)
		} else {
			skipped = append(skipped, name)
		}
	}
	setKernelForTest(prev)
	return append(run, "purego"), skipped
}

// runKernels is testKernels' list alone.
func runKernels(t testing.TB) []string {
	run, _ := testKernels(t)
	return run
}

// parityLengths straddles the 16/32/64-byte SIMD blocks and the 8-byte
// word of the generic loop, plus representative shard sizes.
var parityLengths = []int{
	0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47, 48, 63, 64, 65,
	95, 96, 127, 128, 129, 255, 256, 257, 1023, 1024, 8192, 8193,
}

func TestKernelParityExhaustiveCoefficients(t *testing.T) {
	const n = 257 // crosses every block size with a scalar tail
	raw := make([]byte, n+4)
	for i := range raw {
		raw[i] = byte(i*37 + 11)
	}
	for _, kernel := range runKernels(t) {
		if !setKernelForTest(kernel) {
			t.Fatalf("kernel %s vanished mid-test", kernel)
		}
		for off := 0; off < 4; off++ { // unaligned heads
			src := raw[off : off+n]
			for c := 0; c < 256; c++ {
				got := make([]byte, n)
				want := make([]byte, n)
				MulSlice(byte(c), src, got)
				slowMulSlice(byte(c), src, want)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: MulSlice c=%#x off=%d diverges from MulSlow", kernel, c, off)
				}
				for i := range got {
					got[i] = byte(i * 5)
					want[i] = got[i]
				}
				MulAddSlice(byte(c), src, got)
				slowMulAddSlice(byte(c), src, want)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: MulAddSlice c=%#x off=%d diverges from MulSlow", kernel, c, off)
				}
			}
		}
	}
}

func TestKernelParityLengthsAndOffsets(t *testing.T) {
	max := 0
	for _, n := range parityLengths {
		if n > max {
			max = n
		}
	}
	raw := make([]byte, max+8)
	for i := range raw {
		raw[i] = byte(i*151 + 29)
	}
	coeffs := []byte{0, 1, 2, 3, 0x1d, 0x57, 0x8e, 0xfe, 0xff}
	for _, kernel := range runKernels(t) {
		if !setKernelForTest(kernel) {
			t.Fatalf("kernel %s vanished mid-test", kernel)
		}
		for _, n := range parityLengths {
			for off := 0; off < 3; off++ {
				src := raw[off : off+n]
				for _, c := range coeffs {
					got := make([]byte, n)
					want := make([]byte, n)
					mulSliceTable(&mulTables[c], src, got)
					slowMulSlice(c, src, want)
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: mulSliceTable c=%#x len=%d off=%d diverges", kernel, c, n, off)
					}
					for i := range got {
						got[i] = byte(i*13 + 1)
						want[i] = got[i]
					}
					mulAddSliceTable(&mulTables[c], src, got)
					slowMulAddSlice(c, src, want)
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: MulAddSliceTable c=%#x len=%d off=%d diverges", kernel, c, n, off)
					}
				}
				got := make([]byte, n)
				want := make([]byte, n)
				for i := range got {
					got[i] = byte(i * 3)
					want[i] = got[i] ^ src[i]
				}
				xorSlice(src, got)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: XorSlice len=%d off=%d diverges", kernel, n, off)
				}
			}
		}
	}
}

func TestKernelParityInPlace(t *testing.T) {
	// gfmat.Invert scales rows in place (dst == src): every kernel must
	// tolerate full aliasing.
	for _, kernel := range runKernels(t) {
		if !setKernelForTest(kernel) {
			t.Fatalf("kernel %s vanished mid-test", kernel)
		}
		for _, n := range parityLengths {
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = byte(i*19 + 1)
			}
			want := make([]byte, n)
			slowMulSlice(0x57, buf, want)
			MulSlice(0x57, buf, buf)
			if !bytes.Equal(buf, want) {
				t.Fatalf("%s: in-place MulSlice len=%d diverges", kernel, n)
			}
		}
	}
}

// TestKernelReportsActive logs the active kernel and which levels the
// parity tests run and skip here, so a CPU without GFNI says so.
func TestKernelReportsActive(t *testing.T) {
	name := Kernel()
	if name != "purego" && !slices.Contains(kernelLevels, name) {
		t.Fatalf("Kernel() = %q, not a known kernel", name)
	}
	run, skipped := testKernels(t)
	t.Logf("active kernel: %s; parity levels run: %v; skipped (not available here): %v", name, run, skipped)
}

// slowMulSum is the byte-at-a-time reference for MulSumSlice.
func slowMulSum(coefs []byte, srcs [][]byte, dst []byte) {
	for x := range dst {
		var v byte
		for i, c := range coefs {
			v ^= MulSlow(c, srcs[i][x])
		}
		dst[x] = v
	}
}

// sumRows lays k+1 rows of n bytes, filled from fill, out in one slab
// and returns the slab, row d as dst, the other k rows as sources, and k
// coefficients with a 1 and a 0 among them once k > 2 — the shape of a
// reconstruction that rebuilds row d of its own buffer.
func sumRows(fill []byte, n, k, d int, c byte) (slab []byte, dst []byte, srcs [][]byte, coefs []byte) {
	slab = make([]byte, (k+1)*n)
	for i := range slab {
		if slab[i] = byte(i*131 + 7); len(fill) > 0 {
			slab[i] ^= fill[i%len(fill)]
		}
	}
	for r := 0; r <= k; r++ {
		if row := slab[r*n : (r+1)*n]; r == d {
			dst = row
		} else {
			srcs = append(srcs, row)
		}
	}
	for i := 0; i < k; i++ {
		switch i % 4 {
		case 1:
			coefs = append(coefs, 1)
		case 2:
			coefs = append(coefs, 0)
		default:
			coefs = append(coefs, c+byte(i)*0x3b)
		}
	}
	return slab, dst, srcs, coefs
}

// TestKernelParityMulSum checks the fused sum on every available level
// against the MulSlow reference, at lengths across the 64- and 256-byte
// blocks of the GFNI kernel, with 1–16 sources that are the other rows
// of dst's own buffer: dst is rebuilt and no source is written.
func TestKernelParityMulSum(t *testing.T) {
	lengths := append([]int{191, 192, 193, 255, 256, 257, 319, 320, 511, 512, 513, 4160}, parityLengths...)
	for _, kernel := range runKernels(t) {
		if !setKernelForTest(kernel) {
			t.Fatalf("kernel %s vanished mid-test", kernel)
		}
		for _, n := range lengths {
			for _, k := range []int{1, 2, 3, 5, 8, 16} {
				slab, dst, srcs, coefs := sumRows(nil, n, k, k/2, 0x8e)
				want := slices.Clone(slab)
				slowMulSum(coefs, srcs, want[k/2*n:(k/2+1)*n])
				MulSumSlice(coefs, srcs, dst)
				if !bytes.Equal(slab, want) {
					t.Fatalf("%s: MulSumSlice len=%d sources=%d diverges from MulSlow", kernel, n, k)
				}
			}
		}
		zero := []byte{1, 2, 3}
		MulSumSlice(nil, nil, zero)
		if !bytes.Equal(zero, []byte{0, 0, 0}) {
			t.Fatalf("%s: MulSumSlice of no sources = %v, want zeros", kernel, zero)
		}
	}
}

// FuzzKernelParity diffs every executable SIMD kernel against the
// pure-Go reference on fuzzer-chosen contents, coefficient, and head
// offset — the unaligned heads and short tails where SIMD kernels
// break — and the fused sum over 1–16 sources that are the other rows
// of dst's own buffer.
func FuzzKernelParity(f *testing.F) {
	f.Add(byte(0x1d), uint8(1), uint8(7), []byte("seed input with odd length crossing a block"))
	f.Add(byte(0xff), uint8(0), uint8(15), bytes.Repeat([]byte{0xa5}, 97))
	f.Add(byte(0), uint8(3), uint8(0), []byte{})
	f.Add(byte(0x8e), uint8(2), uint8(8), bytes.Repeat([]byte("0123456789abcdef"), 41))
	f.Fuzz(func(t *testing.T, c byte, off, k uint8, data []byte) {
		start := int(off % 8)
		if start > len(data) {
			start = len(data)
		}
		src := data[start:]
		kernels := runKernels(t)
		// The reference output comes from the forced pure-Go path.
		setKernelForTest("purego")
		wantMul := make([]byte, len(src))
		MulSlice(c, src, wantMul)
		wantAdd := make([]byte, len(src))
		for i := range wantAdd {
			wantAdd[i] = byte(i * 7)
		}
		MulAddSlice(c, src, wantAdd)
		wantXor := make([]byte, len(src))
		for i := range wantXor {
			wantXor[i] = byte(i * 11)
		}
		xorSlice(src, wantXor)
		sources := 1 + int(k%16)
		row := int(off) % (sources + 1)
		wantSum, dst, srcs, coefs := sumRows(src, len(src), sources, row, c)
		MulSumSlice(coefs, srcs, dst)
		for _, kernel := range kernels {
			if kernel == "purego" {
				continue
			}
			setKernelForTest(kernel)
			got := make([]byte, len(src))
			MulSlice(c, src, got)
			if !bytes.Equal(got, wantMul) {
				t.Fatalf("%s MulSlice diverges from purego: c=%#x len=%d start=%d", kernel, c, len(src), start)
			}
			gotAdd := make([]byte, len(src))
			for i := range gotAdd {
				gotAdd[i] = byte(i * 7)
			}
			MulAddSlice(c, src, gotAdd)
			if !bytes.Equal(gotAdd, wantAdd) {
				t.Fatalf("%s MulAddSlice diverges from purego: c=%#x len=%d start=%d", kernel, c, len(src), start)
			}
			gotXor := make([]byte, len(src))
			for i := range gotXor {
				gotXor[i] = byte(i * 11)
			}
			xorSlice(src, gotXor)
			if !bytes.Equal(gotXor, wantXor) {
				t.Fatalf("%s XorSlice diverges from purego: len=%d start=%d", kernel, len(src), start)
			}
			gotSum, dst, srcs, coefs := sumRows(src, len(src), sources, row, c)
			MulSumSlice(coefs, srcs, dst)
			if !bytes.Equal(gotSum, wantSum) {
				t.Fatalf("%s MulSumSlice diverges from purego: len=%d sources=%d row=%d", kernel, len(src), sources, row)
			}
		}
	})
}

// BenchmarkGF256Kernels reports MB/s per kernel level, skipping by name
// each level the CPU lacks (cmd/bdload's gf256.muladd_GBps is the gated
// number, for the selected kernel). The 8 KiB slice matches the shard
// length of the 64 KiB (m=8) dataplane series; MulSumSlice sums eight
// such sources, the missing row of an m = 8 reconstruction, and counts
// the bytes it reads.
func BenchmarkGF256Kernels(b *testing.B) {
	const size, sources = 8 << 10, 8
	src := make([]byte, size)
	dst := make([]byte, size)
	for i := range src {
		src[i] = byte(i*31 + 7)
	}
	tab := &mulTables[0x8e]
	_, _, srcs, coefs := sumRows(src, size, sources, sources, 0x8e)
	prev := Kernel()
	b.Cleanup(func() { setKernelForTest(prev) })
	for _, kernel := range append(kernelLevels, "purego") {
		b.Run(kernel, func(b *testing.B) {
			if !setKernelForTest(kernel) {
				b.Skipf("kernel %s: not available here", kernel)
			}
			b.Run("MulAddSlice", func(b *testing.B) {
				b.SetBytes(size)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					mulAddSliceTable(tab, src, dst)
				}
			})
			b.Run("MulSlice", func(b *testing.B) {
				b.SetBytes(size)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					mulSliceTable(tab, src, dst)
				}
			})
			b.Run("XorSlice", func(b *testing.B) {
				b.SetBytes(size)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					xorSlice(src, dst)
				}
			})
			b.Run("MulSumSlice", func(b *testing.B) {
				b.SetBytes(sources * size)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					MulSumSlice(coefs, srcs, dst)
				}
			})
		})
	}
}
