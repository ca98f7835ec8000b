package statevec

// UseSIMDKern1 turns the SIMD kern1 on or off (on only where the CPU has
// it) for tests in statevec_test, and returns a func restoring the
// previous setting. Tests using it must not run in parallel.
func UseSIMDKern1(on bool) (restore func()) {
	prev := simd1
	simd1 = on && haveSIMD1
	return func() { simd1 = prev }
}
