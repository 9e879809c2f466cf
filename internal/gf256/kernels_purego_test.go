//go:build purego || (!amd64 && !arm64)

package gf256

// setKernelForTest matches the SIMD configurations' test hook; only
// the pure-Go kernel exists here.
func setKernelForTest(name string) bool { return name == "purego" }
