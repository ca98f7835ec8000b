package statevec_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/statevec"
)

// TestDifftestKern1GoPath runs the differential sweep and the golden
// corpus with the SIMD kern1 forced off, so the portable reference path
// keeps its own end-to-end coverage on SIMD hosts, and checks that both
// kern1 paths produce the committed golden lines exactly.
func TestDifftestKern1GoPath(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "difftest", "testdata", "corpus.golden"))
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	for _, simd := range []bool{false, true} {
		t.Run(fmt.Sprintf("simd=%v", simd), func(t *testing.T) {
			defer statevec.UseSIMDKern1(simd)()
			for seed := int64(1); seed <= 20; seed++ {
				if _, err := difftest.Check(seed, difftest.QuickParams()); err != nil {
					t.Fatalf("%v\nreplay: difftest.FromSeed(%d)", err, seed)
				}
			}
			for i, line := range golden {
				got, err := difftest.GoldenCheck(int64(i + 1))
				if err != nil {
					t.Fatalf("golden seed %d: %v", i+1, err)
				}
				if got != line {
					t.Fatalf("golden seed %d:\n  got  %s\n  want %s", i+1, got, line)
				}
			}
		})
	}
}
