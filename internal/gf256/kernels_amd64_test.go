//go:build amd64 && !purego

package gf256

import "slices"

// setKernelForTest forces a kernel level (when the CPU supports it) so
// parity tests exercise every compiled path on one machine. It returns
// false when the requested kernel is unavailable. Test-only.
func setKernelForTest(name string) bool {
	want := kernelLevel(slices.Index(levelNames[:], name))
	if want < 0 || want > detectKernel() {
		return false
	}
	kernel, kernelName = want, name
	return true
}
