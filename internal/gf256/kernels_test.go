package gf256

// Kernel parity suite: every compiled kernel (avx2/ssse3/neon and the
// generic word-wide path) must agree with the pure-Go reference —
// bit-exactly — on every coefficient, on unaligned heads, short tails
// and lengths straddling every SIMD block boundary. PSHUFB/TBL kernels
// break precisely at those edges, so the length set concentrates
// there. FuzzKernelParity extends the same diff to arbitrary
// fuzzer-chosen lengths and offsets.

import (
	"bytes"
	"fmt"
	"testing"
)

// testKernels returns the kernel names the running CPU can execute,
// always ending with "purego" (the reference).
func testKernels(t testing.TB) []string {
	prev := Kernel()
	t.Cleanup(func() { setKernelForTest(prev) })
	var out []string
	for _, name := range []string{"avx2", "ssse3", "neon"} {
		if setKernelForTest(name) {
			out = append(out, name)
		}
	}
	setKernelForTest(prev)
	return append(out, "purego")
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
	for _, kernel := range testKernels(t) {
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
	for _, kernel := range testKernels(t) {
		if !setKernelForTest(kernel) {
			t.Fatalf("kernel %s vanished mid-test", kernel)
		}
		for _, n := range parityLengths {
			for off := 0; off < 3; off++ {
				src := raw[off : off+n]
				for _, c := range coeffs {
					got := make([]byte, n)
					want := make([]byte, n)
					mulSliceTable(MulTable(c), src, got)
					slowMulSlice(c, src, want)
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: mulSliceTable c=%#x len=%d off=%d diverges", kernel, c, n, off)
					}
					for i := range got {
						got[i] = byte(i*13 + 1)
						want[i] = got[i]
					}
					MulAddSliceTable(MulTable(c), src, got)
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
				XorSlice(src, got)
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
	for _, kernel := range testKernels(t) {
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

func TestKernelReportsActive(t *testing.T) {
	name := Kernel()
	switch name {
	case "avx2", "ssse3", "neon", "purego":
	default:
		t.Fatalf("Kernel() = %q, not a known kernel", name)
	}
	t.Logf("active kernel: %s", name)
}

// FuzzKernelParity diffs every executable SIMD kernel against the
// pure-Go reference on fuzzer-chosen contents, coefficient, and head
// offset — the unaligned heads and short tails where PSHUFB-style
// kernels break.
func FuzzKernelParity(f *testing.F) {
	f.Add(byte(0x1d), uint8(1), []byte("seed input with odd length crossing a block"))
	f.Add(byte(0xff), uint8(0), bytes.Repeat([]byte{0xa5}, 97))
	f.Add(byte(0), uint8(3), []byte{})
	f.Fuzz(func(t *testing.T, c byte, off uint8, data []byte) {
		start := int(off % 8)
		if start > len(data) {
			start = len(data)
		}
		src := data[start:]
		kernels := testKernels(t)
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
		XorSlice(src, wantXor)
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
			XorSlice(src, gotXor)
			if !bytes.Equal(gotXor, wantXor) {
				t.Fatalf("%s XorSlice diverges from purego: len=%d start=%d", kernel, len(src), start)
			}
		}
	})
}

// BenchmarkGF256Kernels reports MB/s per available kernel (cmd/bdload's
// gf256.muladd_GBps is the gated number, for the selected kernel). The
// 8 KiB slice matches the shard length of the 64 KiB (m=8) dataplane
// series.
func BenchmarkGF256Kernels(b *testing.B) {
	const size = 8 << 10
	src := make([]byte, size)
	dst := make([]byte, size)
	for i := range src {
		src[i] = byte(i*31 + 7)
	}
	tab := MulTable(0x8e)
	prev := Kernel()
	b.Cleanup(func() { setKernelForTest(prev) })
	for _, kernel := range testKernels(b) {
		if !setKernelForTest(kernel) {
			b.Fatalf("kernel %s vanished mid-benchmark", kernel)
		}
		b.Run(fmt.Sprintf("%s/MulAddSlice", kernel), func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MulAddSliceTable(tab, src, dst)
			}
		})
		b.Run(fmt.Sprintf("%s/MulSlice", kernel), func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mulSliceTable(tab, src, dst)
			}
		})
		b.Run(fmt.Sprintf("%s/XorSlice", kernel), func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				XorSlice(src, dst)
			}
		})
	}
}
