package ida

// Data-plane throughput benchmarks, for measuring while working on the
// codec (cmd/bdload's ida.disperse_MBps and ida.reconstruct_MBps are
// the gated numbers). Reported in MB/s of original file bytes
// (b.SetBytes) and B/op: the steady-state encode and decode loops reuse
// their buffers through the *Into APIs, so each fails by itself
// (zeroalloc) if it allocates once warm.

import (
	"bytes"
	"testing"

	"pinbcast/internal/gf256"
	"pinbcast/internal/zeroalloc"
)

// dataplaneSize is the file size the MB/s series is measured at.
const dataplaneSize = 64 << 10

func dataplaneFile() []byte {
	d := make([]byte, dataplaneSize)
	for i := range d {
		d[i] = byte(i*7 + 3)
	}
	return d
}

// logKernel records which GF(256) kernel produced a benchmark's
// numbers next to the MB/s figures (SIMD and purego results are not
// comparable).
func logKernel(b *testing.B) {
	b.Helper()
	b.Logf("gf256 kernel: %s", gf256.Kernel())
}

// BenchmarkDisperseMBps measures steady-state dispersal of a 64 KiB
// file at (m=8, n=12) — one latency class with r=4 fault tolerance —
// with shard buffers reused across cycles.
func BenchmarkDisperseMBps(b *testing.B) {
	c, err := NewCodec(8, 12)
	if err != nil {
		b.Fatal(err)
	}
	data := dataplaneFile()
	var shards [][]byte
	logKernel(b)
	b.SetBytes(dataplaneSize)
	check := zeroalloc.Start(b)
	for i := 0; i < b.N; i++ {
		shards, err = c.DisperseInto(data, shards)
		if err != nil {
			b.Fatal(err)
		}
	}
	check()
}

// BenchmarkReconstructMBps measures steady-state reconstruction of the
// same 64 KiB file from 8 of its 12 shards with the first 4 systematic
// shards erased — every surviving systematic block is a copy, every
// erased one pays the full decode — with the output buffer reused.
func BenchmarkReconstructMBps(b *testing.B) {
	c, err := NewCodec(8, 12)
	if err != nil {
		b.Fatal(err)
	}
	data := dataplaneFile()
	payloads, err := c.DisperseInto(data, nil)
	if err != nil {
		b.Fatal(err)
	}
	shards := make([]Shard, 0, 8)
	for s := 4; s < 12; s++ {
		shards = append(shards, Shard{Seq: s, Data: payloads[s]})
	}
	var dst []byte
	logKernel(b)
	b.SetBytes(dataplaneSize)
	check := zeroalloc.Start(b)
	for i := 0; i < b.N; i++ {
		dst, err = c.ReconstructInto(shards, dataplaneSize, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	check()
}

// BenchmarkReconstructAllParityMBps is the worst case: every received
// shard is a redundant row, so all m source blocks pay the full m-way
// accumulation.
func BenchmarkReconstructAllParityMBps(b *testing.B) {
	c, err := NewCodec(4, 12)
	if err != nil {
		b.Fatal(err)
	}
	data := dataplaneFile()
	payloads, err := c.DisperseInto(data, nil)
	if err != nil {
		b.Fatal(err)
	}
	shards := make([]Shard, 0, 4)
	for s := 8; s < 12; s++ {
		shards = append(shards, Shard{Seq: s, Data: payloads[s]})
	}
	var dst []byte
	logKernel(b)
	b.SetBytes(dataplaneSize)
	check := zeroalloc.Start(b)
	for i := 0; i < b.N; i++ {
		dst, err = c.ReconstructInto(shards, dataplaneSize, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	check()
}

// BenchmarkReconstructInPlace is a receiver's completing slot at bdload
// lossy-bulk's shape: m = 8 rows of 64 KiB, six of them already written
// into their rows of the output buffer, two missing and rebuilt from two
// parity blocks — the missing rows are all the work, one fused pass
// each.
func BenchmarkReconstructInPlace(b *testing.B) {
	const m, l = 8, 64 << 10
	c, err := NewCodec(m, m+4)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, m*l)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	payloads, err := c.DisperseInto(data, nil)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, m*l)
	var shards []Shard
	for _, seq := range []int{0, 1, 3, 4, 6, 7, m, m + 1} {
		shard := Shard{Seq: seq, Data: payloads[seq]}
		if seq < m {
			shard.Data = dst[seq*l : (seq+1)*l]
			copy(shard.Data, payloads[seq])
		}
		shards = append(shards, shard)
	}
	logKernel(b)
	b.SetBytes(m * l)
	check := zeroalloc.Start(b)
	for i := 0; i < b.N; i++ {
		if _, err := c.ReconstructInto(shards, len(data), dst); err != nil {
			b.Fatal(err)
		}
	}
	check()
	if !bytes.Equal(dst, data) {
		b.Fatal("in-place reconstruction is not byte-exact")
	}
}
