package statevec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gate"
)

// kern1Special returns an amplitude built from values that stress
// rounding and sign handling: signed zeros, subnormals, values near the
// overflow edge, and ordinary magnitudes.
func kern1Special(rng *rand.Rand) complex128 {
	vals := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		3 * math.SmallestNonzeroFloat64, -0x1p-1050, 0x1.8p-1030,
		1e300, -1e300, math.MaxFloat64, -math.MaxFloat64 / 3,
		1, -1, 0.5, math.Sqrt2, -math.Pi,
	}
	pick := func() float64 {
		if rng.Intn(4) == 0 {
			return rng.NormFloat64()
		}
		return vals[rng.Intn(len(vals))]
	}
	return complex(pick(), pick())
}

// kern1Matrices returns random U3 gates plus matrices whose entries are
// exact 0, ±1, ±i and -0: the entries for which a reassociated or fused
// formula is most likely to flip a zero sign.
func kern1Matrices(rng *rand.Rand) [][4]complex128 {
	negZero := complex(math.Copysign(0, -1), 0)
	ms := [][4]complex128{
		{1, 0, 0, 1},
		{0, 1, 1, 0},
		{1, 0, 0, -1},
		{0, -1, 1, 0},
		{-1, 0, 0, -1},
		{0, -1i, 1i, 0},
		{negZero, 1, -1, negZero},
		{1, negZero, complex(0, math.Copysign(0, -1)), -1i},
	}
	for i := 0; i < 6; i++ {
		m := gate.U3(rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi).Matrix()
		ms = append(ms, [4]complex128{m.At(0, 0), m.At(0, 1), m.At(1, 0), m.At(1, 1)})
	}
	return ms
}

// TestKern1SIMDParity pins the SIMD kern1 to the kern1Go reference bit
// for bit: every width 1..12, every bit position, full and random partial
// block ranges, on ordinary and special-valued states.
func TestKern1SIMDParity(t *testing.T) {
	if !haveSIMD1 {
		t.Skip("no SIMD kern1 on this CPU")
	}
	rng := rand.New(rand.NewSource(13))
	ms := kern1Matrices(rng)
	for n := 1; n <= 12; n++ {
		dim := 1 << uint(n)
		states := make([][]complex128, 2)
		for s := range states {
			states[s] = make([]complex128, dim)
		}
		for i := 0; i < dim; i++ {
			states[0][i] = complex(rng.NormFloat64(), rng.NormFloat64())
			states[1][i] = kern1Special(rng)
		}
		for q := 0; q < n; q++ {
			bit := 1 << uint(q)
			units := dim >> uint(q+1)
			ranges := [][2]int{{0, units}}
			for r := 0; r < 3; r++ {
				lo := rng.Intn(units + 1)
				ranges = append(ranges, [2]int{lo, lo + rng.Intn(units-lo+1)})
			}
			for si, st := range states {
				for mi, m := range ms {
					for _, r := range ranges {
						want := append([]complex128(nil), st...)
						got := append([]complex128(nil), st...)
						kern1Go(want, bit, r[0], r[1], m[0], m[1], m[2], m[3])
						kern1(got, bit, r[0], r[1], m[0], m[1], m[2], m[3])
						if i, ok := statesBitEqual(&State{n: n, amp: want}, &State{n: n, amp: got}); !ok {
							t.Fatalf("n=%d bit=%d state %d matrix %d range %v: amp %d = %v, want %v",
								n, bit, si, mi, r, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// FuzzKern1Parity fuzzes the SIMD kern1 against kern1Go over raw
// amplitude bits, the bit position, the block range and the matrix.
// NaN payloads are outside the contract — a state vector never holds a
// NaN, and which of two NaN operands x86 propagates depends on operand
// order the Go compiler is free to pick — so two NaNs compare equal;
// every other value compares by Float64bits.
func FuzzKern1Parity(f *testing.F) {
	if !haveSIMD1 {
		f.Skip("no SIMD kern1 on this CPU")
	}
	seed := make([]byte, 16*8)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed, uint8(0), uint16(0), uint16(4), 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
	f.Add(seed, uint8(1), uint16(1), uint16(3), 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0)
	f.Add(seed, uint8(2), uint16(0), uint16(2), 0.6, math.Copysign(0, -1), 0.0, 0.8, 0.0, -0.8, -0.6, 0.0)
	f.Fuzz(func(t *testing.T, raw []byte, bitRaw uint8, loRaw, hiRaw uint16,
		r00, i00, r01, i01, r10, i10, r11, i11 float64) {
		// Largest power-of-two state the bytes fill, 2..4096 amplitudes.
		n := 1
		for n < 12 && 16<<uint(n+1) <= len(raw) {
			n++
		}
		amp := make([]complex128, 1<<uint(n))
		for i := range amp {
			if 16*i+16 > len(raw) {
				break
			}
			amp[i] = complex(
				math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:])),
				math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:])))
		}
		q := int(bitRaw) % n
		bit := 1 << uint(q)
		units := len(amp) >> uint(q+1)
		lo := int(loRaw) % (units + 1)
		hi := lo + int(hiRaw)%(units-lo+1)
		m := [4]complex128{complex(r00, i00), complex(r01, i01), complex(r10, i10), complex(r11, i11)}

		want := append([]complex128(nil), amp...)
		got := append([]complex128(nil), amp...)
		kern1Go(want, bit, lo, hi, m[0], m[1], m[2], m[3])
		kern1(got, bit, lo, hi, m[0], m[1], m[2], m[3])
		same := func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
		}
		for i := range want {
			if !same(real(want[i]), real(got[i])) || !same(imag(want[i]), imag(got[i])) {
				t.Fatalf("n=%d bit=%d range [%d,%d) amp %d: got %v want %v",
					n, bit, lo, hi, i, got[i], want[i])
			}
		}
	})
}
