//go:build !amd64

package statevec

// haveSIMD1 is false off amd64: kern1 always runs kern1Go.
const haveSIMD1 = false

func kern1AVX2(amp []complex128, bit, lo, hi int, u *[4]complex128) {
	panic("statevec: kern1AVX2 called without amd64 support")
}
