//go:build arm64 && !purego

package gf256

// setKernelForTest forces the purego path (or restores neon) so parity
// tests exercise both compiled paths on one machine. Test-only.
func setKernelForTest(name string) bool {
	switch name {
	case "neon":
		kernelName = "neon"
		return true
	case "purego":
		kernelName = "purego"
		return true
	}
	return false
}
