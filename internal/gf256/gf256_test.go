package gf256

import (
	"testing"
	"testing/quick"
)

func TestMulKnownValues(t *testing.T) {
	// Hand-checked products under polynomial 0x11d.
	cases := []struct{ a, b, want byte }{
		{0, 0, 0},
		{0, 7, 0},
		{1, 1, 1},
		{1, 0xff, 0xff},
		{2, 2, 4},
		{2, 0x80, 0x1d}, // 0x100 reduces by 0x11d
		{0x80, 0x80, MulSlow(0x80, 0x80)},
	}
	for _, c := range cases {
		if got := mul(c.a, c.b); got != c.want {
			t.Errorf("mul(%#x, %#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

func TestMulMatchesMulSlowExhaustive(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if mul(byte(a), byte(b)) != MulSlow(byte(a), byte(b)) {
				t.Fatalf("mul(%#x,%#x) != MulSlow", a, b)
			}
		}
	}
}

func TestMulCommutative(t *testing.T) {
	f := func(a, b byte) bool { return mul(a, b) == mul(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulAssociative(t *testing.T) {
	f := func(a, b, c byte) bool { return mul(mul(a, b), c) == mul(a, mul(b, c)) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistributive(t *testing.T) {
	f := func(a, b, c byte) bool { return mul(a, b^c) == mul(a, b)^mul(a, c) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInvExhaustive(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if got := mul(byte(a), inv); got != 1 {
			t.Fatalf("a=%#x: a·Inv(a) = %#x, want 1", a, got)
		}
	}
}

func TestDivInvertsMul(t *testing.T) {
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return mul(mul(a, b), Inv(b)) == a // division is multiplication by the inverse
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestExpLogRoundTrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		if got := expTable[logTable[a]]; got != byte(a) {
			t.Fatalf("exp(log(%#x)) = %#x", a, got)
		}
	}
}

func TestExpPeriod255(t *testing.T) {
	for e := 0; e < 255; e++ {
		if expTable[e] != expTable[e+255] {
			t.Fatalf("Exp not periodic at e=%d", e)
		}
	}
}

func TestGeneratorIsPrimitive(t *testing.T) {
	// Powers of the generator must enumerate all 255 nonzero elements.
	seen := make(map[byte]bool)
	for e := 0; e < 255; e++ {
		seen[expTable[e]] = true
	}
	if len(seen) != 255 {
		t.Fatalf("generator enumerates %d elements, want 255", len(seen))
	}
}

func TestPow(t *testing.T) {
	cases := []struct {
		a    byte
		e    int
		want byte
	}{
		{0, 0, 1},
		{0, 5, 0},
		{1, 100, 1},
		{2, 1, 2},
		{2, 8, MulSlow(MulSlow(MulSlow(2, 2), MulSlow(2, 2)), MulSlow(MulSlow(2, 2), MulSlow(2, 2)))},
	}
	for _, c := range cases {
		if got := Pow(c.a, c.e); got != c.want {
			t.Errorf("Pow(%#x, %d) = %#x, want %#x", c.a, c.e, got, c.want)
		}
	}
}

func TestPowMatchesRepeatedMul(t *testing.T) {
	for a := 0; a < 256; a += 7 {
		acc := byte(1)
		for e := 0; e < 20; e++ {
			if got := Pow(byte(a), e); got != acc {
				t.Fatalf("Pow(%#x, %d) = %#x, want %#x", a, e, got, acc)
			}
			acc = mul(acc, byte(a))
		}
	}
}

func TestMulSlice(t *testing.T) {
	src := []byte{0, 1, 2, 3, 0xff}
	dst := make([]byte, len(src))
	for _, c := range []byte{0, 1, 2, 0x1d, 0xff} {
		MulSlice(c, src, dst)
		for i := range src {
			if dst[i] != mul(c, src[i]) {
				t.Fatalf("MulSlice c=%#x i=%d: got %#x want %#x", c, i, dst[i], mul(c, src[i]))
			}
		}
	}
}

func TestMulAddSlice(t *testing.T) {
	src := []byte{5, 0, 9, 0xab}
	for _, c := range []byte{0, 1, 3} {
		dst := []byte{1, 2, 3, 4}
		want := make([]byte, len(dst))
		for i := range dst {
			want[i] = dst[i] ^ mul(c, src[i])
		}
		MulAddSlice(c, src, dst)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("MulAddSlice c=%#x i=%d: got %#x want %#x", c, i, dst[i], want[i])
			}
		}
	}
}

func TestMulSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MulSlice length mismatch did not panic")
		}
	}()
	MulSlice(1, make([]byte, 3), make([]byte, 4))
}

func BenchmarkMul(b *testing.B) {
	var acc byte
	for i := 0; i < b.N; i++ {
		acc ^= mul(byte(i), byte(i>>8))
	}
	_ = acc
}

func BenchmarkMulAddSlice(b *testing.B) {
	src := make([]byte, 4096)
	dst := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i * 31)
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddSlice(byte(i)|1, src, dst)
	}
}

func TestMulTableExhaustive(t *testing.T) {
	// The cached product tables are the foundation of every bulk kernel:
	// verify all 65536 entries against the shift-and-reduce oracle.
	for c := 0; c < 256; c++ {
		tab := MulTable(byte(c))
		for x := 0; x < 256; x++ {
			if got, want := tab[x], MulSlow(byte(c), byte(x)); got != want {
				t.Fatalf("MulTable(%#x)[%#x] = %#x, want %#x", c, x, got, want)
			}
		}
	}
}

// slowMulSlice and slowMulAddSlice are the byte-at-a-time reference
// implementations the vectorized kernels are checked against.
func slowMulSlice(c byte, src, dst []byte) {
	for i := range src {
		dst[i] = MulSlow(c, src[i])
	}
}

func slowMulAddSlice(c byte, src, dst []byte) {
	for i := range src {
		dst[i] ^= MulSlow(c, src[i])
	}
}

// kernelLengths exercises the unrolled word loop and the byte tail:
// empty, single byte, just below/at/above the 8-byte word, and larger
// non-multiple-of-8 sizes.
var kernelLengths = []int{0, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256, 1000}

func TestMulSliceMatchesSlowKernel(t *testing.T) {
	for _, n := range kernelLengths {
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i*37 + 11)
		}
		for _, c := range []byte{0, 1, 2, 3, 0x1d, 0x80, 0xfe, 0xff} {
			got := make([]byte, n)
			want := make([]byte, n)
			MulSlice(c, src, got)
			slowMulSlice(c, src, want)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("MulSlice c=%#x len=%d i=%d: got %#x want %#x", c, n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMulAddSliceMatchesSlowKernel(t *testing.T) {
	for _, n := range kernelLengths {
		src := make([]byte, n)
		base := make([]byte, n)
		for i := range src {
			src[i] = byte(i*53 + 7)
			base[i] = byte(i * 101)
		}
		for _, c := range []byte{0, 1, 2, 3, 0x1d, 0x80, 0xfe, 0xff} {
			got := append([]byte(nil), base...)
			want := append([]byte(nil), base...)
			MulAddSlice(c, src, got)
			slowMulAddSlice(c, src, want)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("MulAddSlice c=%#x len=%d i=%d: got %#x want %#x", c, n, i, got[i], want[i])
				}
			}
			gotT := append([]byte(nil), base...)
			MulAddSliceTable(MulTable(c), src, gotT)
			for i := range gotT {
				if gotT[i] != want[i] {
					t.Fatalf("MulAddSliceTable c=%#x len=%d i=%d: got %#x want %#x", c, n, i, gotT[i], want[i])
				}
			}
		}
	}
}

func TestXorSliceMatchesSlowKernel(t *testing.T) {
	for _, n := range kernelLengths {
		src := make([]byte, n)
		got := make([]byte, n)
		want := make([]byte, n)
		for i := range src {
			src[i] = byte(i*29 + 3)
			got[i] = byte(i * 5)
			want[i] = got[i] ^ src[i]
		}
		XorSlice(src, got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("XorSlice len=%d i=%d: got %#x want %#x", n, i, got[i], want[i])
			}
		}
	}
}

func TestMulSliceInPlaceAliasing(t *testing.T) {
	// gfmat.Invert scales rows in place: MulSlice must tolerate dst == src.
	for _, n := range kernelLengths {
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i*19 + 1)
		}
		want := make([]byte, n)
		slowMulSlice(0x57, src, want)
		MulSlice(0x57, src, src)
		for i := range src {
			if src[i] != want[i] {
				t.Fatalf("in-place MulSlice len=%d i=%d: got %#x want %#x", n, i, src[i], want[i])
			}
		}
	}
}

// FuzzMulAddKernel cross-checks the word-unrolled kernels against the
// MulSlow oracle on arbitrary inputs (coefficient, contents, length —
// including lengths not a multiple of the 8-byte word).
func FuzzMulAddKernel(f *testing.F) {
	f.Add(byte(0x1d), []byte("seed input with odd length!"))
	f.Add(byte(0), []byte{})
	f.Add(byte(1), []byte{0xff})
	f.Fuzz(func(t *testing.T, c byte, src []byte) {
		dst := make([]byte, len(src))
		for i := range dst {
			dst[i] = byte(i * 17)
		}
		want := append([]byte(nil), dst...)
		slowMulAddSlice(c, src, want)
		MulAddSlice(c, src, dst)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("MulAddSlice c=%#x len=%d i=%d: got %#x want %#x", c, len(src), i, dst[i], want[i])
			}
		}
		got2 := make([]byte, len(src))
		want2 := make([]byte, len(src))
		MulSlice(c, src, got2)
		slowMulSlice(c, src, want2)
		for i := range got2 {
			if got2[i] != want2[i] {
				t.Fatalf("MulSlice c=%#x len=%d i=%d: got %#x want %#x", c, len(src), i, got2[i], want2[i])
			}
		}
	})
}

func BenchmarkMulAddSliceTable(b *testing.B) {
	src := make([]byte, 4096)
	dst := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i * 31)
	}
	tab := MulTable(0x8e)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddSliceTable(tab, src, dst)
	}
}
