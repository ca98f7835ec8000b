package trial

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/noise"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	cases := []Injection{
		{0, 0, gate.PauliX},
		{1, 0, gate.PauliY},
		{100, 39, gate.PauliZ},
		{keyLayerMax, keyQubitMax, gate.PauliZ},
	}
	for _, in := range cases {
		got := Pack(in.Layer, in.Qubit, in.Op).Unpack()
		if got != in {
			t.Errorf("round trip %v -> %v", in, got)
		}
	}
}

func TestPackOrderPreserving(t *testing.T) {
	f := func(l1, q1, l2, q2 uint16, p1, p2 uint8) bool {
		a := Injection{int(l1), int(q1), gate.Pauli(p1 % 3)}
		b := Injection{int(l2), int(q2), gate.Pauli(p2 % 3)}
		ka, kb := Pack(a.Layer, a.Qubit, a.Op), Pack(b.Layer, b.Qubit, b.Op)
		// Tuple order must equal packed order.
		tupleLess := a.Layer < b.Layer ||
			a.Layer == b.Layer && (a.Qubit < b.Qubit ||
				a.Qubit == b.Qubit && a.Op < b.Op)
		return tupleLess == (ka < kb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPackPanicsOutOfRange(t *testing.T) {
	for _, fn := range []func(){
		func() { Pack(-1, 0, gate.PauliX) },
		func() { Pack(0, -1, gate.PauliX) },
		func() { Pack(0, keyQubitMax+1, gate.PauliX) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Pack out of range did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestLayerAccessor(t *testing.T) {
	k := Pack(7, 3, gate.PauliY)
	if k.Layer() != 7 {
		t.Errorf("Layer() = %d, want 7", k.Layer())
	}
}

func mkTrial(id int, inj ...Injection) *Trial {
	t := &Trial{ID: id}
	for _, in := range inj {
		t.Inj = append(t.Inj, Pack(in.Layer, in.Qubit, in.Op))
	}
	return t
}

func TestCompare(t *testing.T) {
	a := mkTrial(0, Injection{1, 0, gate.PauliX})
	b := mkTrial(1, Injection{2, 0, gate.PauliX})
	clean := mkTrial(2)
	longer := mkTrial(3, Injection{1, 0, gate.PauliX}, Injection{5, 1, gate.PauliZ})

	if Compare(a, b) >= 0 {
		t.Error("earlier first error should sort first")
	}
	if Compare(a, a) != 0 {
		t.Error("self compare != 0")
	}
	// Exhausted sorts last: clean > everything with errors.
	if Compare(clean, a) <= 0 {
		t.Error("clean trial should sort after error trials")
	}
	// A prefix sorts after its extension.
	if Compare(a, longer) <= 0 {
		t.Error("prefix trial should sort after its extension")
	}
}

func TestSharedLayers(t *testing.T) {
	a := mkTrial(0, Injection{3, 0, gate.PauliX})
	b := mkTrial(1, Injection{3, 0, gate.PauliX}, Injection{7, 1, gate.PauliY})
	c := mkTrial(2, Injection{5, 0, gate.PauliZ})
	clean := mkTrial(3)

	if l, id := SharedLayers(a, b); l != 7 || id {
		t.Errorf("a,b shared = %d,%v, want 7,false", l, id)
	}
	if l, _ := SharedLayers(a, c); l != 3 {
		t.Errorf("a,c shared = %d, want 3", l)
	}
	if l, _ := SharedLayers(clean, c); l != 5 {
		t.Errorf("clean,c shared = %d, want 5", l)
	}
	if _, id := SharedLayers(a, mkTrial(9, Injection{3, 0, gate.PauliX})); !id {
		t.Error("identical trials not reported identical")
	}
	if l, id := SharedLayers(clean, mkTrial(8)); l != math.MaxInt || !id {
		t.Error("two clean trials should be identical")
	}
}

func TestSharedLayersSameLayerDifferentQubit(t *testing.T) {
	a := mkTrial(0, Injection{4, 0, gate.PauliX})
	b := mkTrial(1, Injection{4, 2, gate.PauliX})
	if l, _ := SharedLayers(a, b); l != 4 {
		t.Errorf("same-layer divergence shared = %d, want 4", l)
	}
}

func testCircuit() *circuit.Circuit {
	c := circuit.New("t", 3)
	c.Append(gate.H(), 0)
	c.Append(gate.H(), 1)
	c.Append(gate.CX(), 0, 1)
	c.Append(gate.H(), 2)
	c.Append(gate.CX(), 1, 2)
	c.MeasureAll()
	return c
}

func TestGeneratorSlotTable(t *testing.T) {
	c := testCircuit()
	m := noise.Uniform("u", 3, 0.1, 0.2, 0.05)
	g, err := NewGenerator(c, m)
	if err != nil {
		t.Fatal(err)
	}
	// Per-gate mode: one slot per gate = 5.
	if g.NumSlots() != 5 {
		t.Errorf("slots = %d, want 5", g.NumSlots())
	}
	if g.Mode() != PerGate {
		t.Errorf("default mode = %v, want PerGate", g.Mode())
	}
	want := 3*0.1 + 2*(0.2*24.0/15.0)
	if math.Abs(g.ExpectedErrors()-want) > 1e-12 {
		t.Errorf("expected errors = %g, want %g", g.ExpectedErrors(), want)
	}

	// Per-qubit mode: h0, h1 (1q), cx01 (2 slots), h2 (1q), cx12 (2) = 7.
	gq, err := NewGeneratorMode(c, m, PerQubit)
	if err != nil {
		t.Fatal(err)
	}
	if gq.NumSlots() != 7 {
		t.Errorf("per-qubit slots = %d, want 7", gq.NumSlots())
	}
	wantQ := 3*0.1 + 4*0.2
	if math.Abs(gq.ExpectedErrors()-wantQ) > 1e-12 {
		t.Errorf("per-qubit expected errors = %g, want %g", gq.ExpectedErrors(), wantQ)
	}
}

func TestGeneratorWidthMismatch(t *testing.T) {
	c := testCircuit()
	m := noise.Uniform("u", 2, 0.1, 0.2, 0.05)
	if _, err := NewGenerator(c, m); err == nil {
		t.Error("narrow model accepted")
	}
}

func TestNoiselessTrialsAreClean(t *testing.T) {
	c := testCircuit()
	m := noise.NewModel("clean", 3)
	g, err := NewGenerator(c, m)
	if err != nil {
		t.Fatal(err)
	}
	trials := g.Generate(rand.New(rand.NewSource(1)), 100)
	for _, tr := range trials {
		if len(tr.Inj) != 0 || tr.MeasFlips != 0 {
			t.Fatalf("noiseless trial has errors: %v", tr)
		}
	}
}

func TestTrialsSortedWithinTrial(t *testing.T) {
	c := testCircuit()
	m := noise.Uniform("u", 3, 0.3, 0.5, 0.1)
	g, _ := NewGenerator(c, m)
	trials := g.Generate(rand.New(rand.NewSource(2)), 500)
	for _, tr := range trials {
		if !sort.SliceIsSorted(tr.Inj, func(i, j int) bool { return tr.Inj[i] < tr.Inj[j] }) {
			t.Fatalf("trial injections not sorted: %v", tr)
		}
		for _, k := range tr.Inj {
			in := k.Unpack()
			if in.Layer < 0 || in.Layer >= c.NumLayers() {
				t.Fatalf("injection layer out of range: %v", in)
			}
			if in.Qubit < 0 || in.Qubit >= c.NumQubits() {
				t.Fatalf("injection qubit out of range: %v", in)
			}
		}
	}
}

func TestGenerationDeterministicBySeed(t *testing.T) {
	c := testCircuit()
	m := noise.Uniform("u", 3, 0.2, 0.4, 0.1)
	g, _ := NewGenerator(c, m)
	a := g.Generate(rand.New(rand.NewSource(42)), 200)
	b := g.Generate(rand.New(rand.NewSource(42)), 200)
	for i := range a {
		if a[i].String() != b[i].String() || a[i].MeasFlips != b[i].MeasFlips || a[i].SampleU != b[i].SampleU {
			t.Fatalf("trial %d differs across equal seeds", i)
		}
	}
}

// TestErrorRateStatistics checks the thinning sampler against the expected
// per-slot error rate.
func TestErrorRateStatistics(t *testing.T) {
	c := testCircuit()
	p1, p2 := 0.05, 0.15
	m := noise.Uniform("u", 3, p1, p2, 0)
	g, _ := NewGenerator(c, m)
	rng := rand.New(rand.NewSource(3))
	const n = 50000
	var total int
	for i := 0; i < n; i++ {
		total += g.Sample(rng, i).NumErrors()
	}
	got := float64(total) / n
	want := g.ExpectedErrors()
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("mean errors = %g, want ~%g", got, want)
	}
}

// TestErrorPositionStatistics checks that per-slot frequencies match slot
// probabilities (validates the thinning acceptance step with heterogeneous
// rates) in the per-qubit mode, where every slot is a single position.
func TestErrorPositionStatistics(t *testing.T) {
	c := testCircuit()
	m := noise.NewModel("het", 3)
	m.SetSingle(0, 0.02).SetSingle(1, 0.1).SetSingle(2, 0.05)
	m.SetTwoDefault(0.2)
	g, _ := NewGeneratorMode(c, m, PerQubit)
	rng := rand.New(rand.NewSource(4))
	const n = 60000
	counts := map[Key]int{}
	for i := 0; i < n; i++ {
		tr := g.Sample(rng, i)
		for _, k := range tr.Inj {
			// Fold the Pauli away to count positions.
			counts[k>>keyPauliBits]++
		}
	}
	check := func(layer, qubit int, want float64) {
		k := Pack(layer, qubit, 0) >> keyPauliBits
		got := float64(counts[k]) / n
		if math.Abs(got-want)/want > 0.1 {
			t.Errorf("slot L%d.q%d rate = %g, want ~%g", layer, qubit, got, want)
		}
	}
	check(0, 0, 0.02) // h q0
	check(0, 1, 0.1)  // h q1
	check(0, 2, 0.05) // h q2
	check(1, 0, 0.2)  // cx q0 side
	check(1, 1, 0.2)  // cx q1 side
}

func TestPauliUniformity(t *testing.T) {
	c := testCircuit()
	m := noise.Uniform("u", 3, 0.3, 0.3, 0)
	g, _ := NewGenerator(c, m)
	rng := rand.New(rand.NewSource(5))
	var counts [3]int
	for i := 0; i < 20000; i++ {
		for _, k := range g.Sample(rng, i).Inj {
			counts[k.Unpack().Op]++
		}
	}
	total := counts[0] + counts[1] + counts[2]
	for p, c := range counts {
		frac := float64(c) / float64(total)
		if math.Abs(frac-1.0/3.0) > 0.02 {
			t.Errorf("Pauli %d fraction = %g, want ~1/3", p, frac)
		}
	}
}

func TestMeasurementFlipStatistics(t *testing.T) {
	c := testCircuit()
	m := noise.NewModel("meas", 3)
	m.SetMeasure(0, 0.5).SetMeasure(1, 0.1)
	g, _ := NewGenerator(c, m)
	rng := rand.New(rand.NewSource(6))
	const n = 40000
	var f0, f1, f2 int
	for i := 0; i < n; i++ {
		tr := g.Sample(rng, i)
		if tr.MeasFlips&1 != 0 {
			f0++
		}
		if tr.MeasFlips&2 != 0 {
			f1++
		}
		if tr.MeasFlips&4 != 0 {
			f2++
		}
	}
	if math.Abs(float64(f0)/n-0.5) > 0.02 {
		t.Errorf("bit0 flip rate = %g, want ~0.5", float64(f0)/n)
	}
	if math.Abs(float64(f1)/n-0.1) > 0.02 {
		t.Errorf("bit1 flip rate = %g, want ~0.1", float64(f1)/n)
	}
	if f2 != 0 {
		t.Errorf("bit2 flipped %d times with zero rate", f2)
	}
}

func TestSummarize(t *testing.T) {
	trials := []*Trial{
		mkTrial(0),
		mkTrial(1),
		mkTrial(2, Injection{1, 0, gate.PauliX}),
		mkTrial(3, Injection{1, 0, gate.PauliX}),
		mkTrial(4, Injection{1, 0, gate.PauliX}, Injection{2, 1, gate.PauliZ}),
	}
	st := Summarize(trials)
	if st.Trials != 5 || st.ErrorFree != 2 || st.TotalErrors != 4 || st.MaxErrors != 2 {
		t.Errorf("stats wrong: %+v", st)
	}
	if st.DistinctSeqs != 3 {
		t.Errorf("distinct = %d, want 3", st.DistinctSeqs)
	}
	if math.Abs(st.DuplicateRate-0.4) > 1e-12 {
		t.Errorf("duplicate rate = %g, want 0.4", st.DuplicateRate)
	}
	if math.Abs(st.MeanErrors-0.8) > 1e-12 {
		t.Errorf("mean errors = %g, want 0.8", st.MeanErrors)
	}
}

// TestThinningMatchesDirectSampling compares the thinning fast path against
// a brute-force per-slot sampler on aggregate statistics.
func TestThinningMatchesDirectSampling(t *testing.T) {
	c := bench.QFT(4)
	m := noise.Uniform("u", 4, 0.01, 0.05, 0)
	g, _ := NewGenerator(c, m)
	rng := rand.New(rand.NewSource(7))
	const n = 30000
	var thinned int
	for i := 0; i < n; i++ {
		thinned += g.Sample(rng, i).NumErrors()
	}
	mean := float64(thinned) / n
	want := g.ExpectedErrors()
	if math.Abs(mean-want)/want > 0.05 {
		t.Errorf("thinned mean = %g, expected %g", mean, want)
	}
}

func TestTrialString(t *testing.T) {
	tr := mkTrial(7, Injection{2, 1, gate.PauliY})
	if got := tr.String(); got != "t7[Y@L2.q1]" {
		t.Errorf("String = %q", got)
	}
}

func TestGeneratorRejectsTooManyMeasuredBits(t *testing.T) {
	c := circuit.New("wide", 70)
	for q := 0; q < 70; q++ {
		c.Append(gate.H(), q)
	}
	c.MeasureAll()
	m := noise.Uniform("u", 70, 0.001, 0.01, 0.01)
	if _, err := NewGenerator(c, m); err == nil {
		t.Error("70 measured bits accepted into 64-bit mask")
	}
}

// TestPerGateTwoQubitPauliDistribution validates the 15-pair sampling of
// per-gate two-qubit errors: when a CX slot fires, one- and two-operator
// injections occur in the 6:9 ratio, and the firing rate matches the pair
// probability.
func TestPerGateTwoQubitPauliDistribution(t *testing.T) {
	c := circuit.New("cxonly", 2)
	c.Append(gate.CX(), 0, 1)
	c.MeasureAll()
	m := noise.NewModel("m", 2)
	m.SetTwoDefault(0.5)
	g, err := NewGenerator(c, m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	const n = 60000
	var fired, singles, doubles int
	for i := 0; i < n; i++ {
		tr := g.Sample(rng, i)
		switch len(tr.Inj) {
		case 0:
		case 1:
			fired++
			singles++
		case 2:
			fired++
			doubles++
			// Both injections must land at layer 0 on distinct qubits.
			a, b := tr.Inj[0].Unpack(), tr.Inj[1].Unpack()
			if a.Layer != 0 || b.Layer != 0 || a.Qubit == b.Qubit {
				t.Fatalf("bad pair injection: %v", tr)
			}
		default:
			t.Fatalf("trial with %d injections from one slot", len(tr.Inj))
		}
	}
	if rate := float64(fired) / n; math.Abs(rate-0.5) > 0.02 {
		t.Errorf("fire rate = %g, want ~0.5", rate)
	}
	ratio := float64(singles) / float64(doubles)
	if math.Abs(ratio-6.0/9.0) > 0.06 {
		t.Errorf("single:double ratio = %g, want ~%g", ratio, 6.0/9.0)
	}
}

// TestPerGateInjectionsSorted: pair slots emit injections that interleave
// with later same-layer slots; the final list must still be sorted.
func TestPerGateInjectionsSorted(t *testing.T) {
	c := circuit.New("mix", 4)
	c.Append(gate.CX(), 0, 3) // pair slot spanning the layer
	c.Append(gate.H(), 1)
	c.Append(gate.H(), 2)
	c.MeasureAll()
	m := noise.Uniform("m", 4, 0.9, 0.9, 0)
	g, err := NewGenerator(c, m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 2000; i++ {
		tr := g.Sample(rng, i)
		if !sort.SliceIsSorted(tr.Inj, func(a, b int) bool { return tr.Inj[a] < tr.Inj[b] }) {
			t.Fatalf("unsorted injections: %v", tr)
		}
	}
}

func TestErrorModeString(t *testing.T) {
	if PerGate.String() != "per-gate" || PerQubit.String() != "per-qubit" {
		t.Error("ErrorMode strings wrong")
	}
}

// TestIdleErrorSlots: with idle errors enabled, untouched qubits gain a
// slot per layer.
func TestIdleErrorSlots(t *testing.T) {
	// Layer 0: h q0 (q1, q2 idle). Layer 1: cx q0,q1 (q2 idle).
	c := circuit.New("idle", 3)
	c.Append(gate.H(), 0)
	c.Append(gate.CX(), 0, 1)
	c.MeasureAll()
	m := noise.Uniform("u", 3, 0.01, 0.02, 0)
	for q := 0; q < 3; q++ {
		m.SetIdle(q, 0.005)
	}
	g, err := NewGenerator(c, m)
	if err != nil {
		t.Fatal(err)
	}
	// Gate slots: h (1) + cx (1) = 2; idle slots: q1,q2 at layer 0 and
	// q2 at layer 1 = 3.
	if g.NumSlots() != 5 {
		t.Errorf("slots = %d, want 5", g.NumSlots())
	}
	want := 0.01 + 0.02*24.0/15.0 + 3*0.005
	if math.Abs(g.ExpectedErrors()-want) > 1e-12 {
		t.Errorf("expected errors = %g, want %g", g.ExpectedErrors(), want)
	}
	// Sample and verify idle injections land on idle qubits/layers.
	rng := rand.New(rand.NewSource(31))
	sawIdle := false
	for i := 0; i < 20000; i++ {
		for _, k := range g.Sample(rng, i).Inj {
			in := k.Unpack()
			if in.Layer == 0 && (in.Qubit == 1 || in.Qubit == 2) {
				sawIdle = true
			}
			if in.Layer == 1 && in.Qubit == 2 {
				sawIdle = true
			}
		}
	}
	if !sawIdle {
		t.Error("no idle-position injections observed")
	}
}

func TestNoIdleSlotsWhenDisabled(t *testing.T) {
	c := circuit.New("idle", 3)
	c.Append(gate.H(), 0)
	c.MeasureAll()
	m := noise.Uniform("u", 3, 0.01, 0.02, 0)
	g, err := NewGenerator(c, m)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumSlots() != 1 {
		t.Errorf("slots = %d, want 1 (no idle slots by default)", g.NumSlots())
	}
}

// generatorCases covers every sampling path: thinning, the degenerate
// p >= 1 walk, idle slots, PerQubit mode and a noiseless model.
func generatorCases(t *testing.T) map[string]*Generator {
	t.Helper()
	idle := noise.Uniform("idle", 3, 0.05, 0.1, 0.02)
	for q := 0; q < 3; q++ {
		idle.SetIdle(q, 0.03)
	}
	qft := bench.QFT(4)
	type spec struct {
		c    *circuit.Circuit
		m    *noise.Model
		mode ErrorMode
	}
	specs := map[string]spec{
		"thinning":   {qft, noise.Uniform("u", 4, 0.02, 0.1, 0.05), PerGate},
		"degenerate": {testCircuit(), noise.Uniform("one", 3, 1, 1, 0.5), PerGate},
		"idle":       {testCircuit(), idle, PerGate},
		"per-qubit":  {qft, noise.Uniform("u", 4, 0.02, 0.1, 0.05), PerQubit},
		"noiseless":  {testCircuit(), noise.NewModel("clean", 3), PerGate},
	}
	out := make(map[string]*Generator, len(specs))
	for name, s := range specs {
		g, err := NewGeneratorMode(s.c, s.m, s.mode)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = g
	}
	return out
}

// TestGenerateMatchesSample checks that the arena-backed Generate draws
// exactly the trials of n Sample calls on a same-seeded rng: IDs, keys,
// nil injection lists for error-free trials, readout flips and the
// sampling uniform's bits.
func TestGenerateMatchesSample(t *testing.T) {
	for name, g := range generatorCases(t) {
		for _, seed := range []int64{1, 2, 99} {
			const n = 400
			got := g.Generate(rand.New(rand.NewSource(seed)), n)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < n; i++ {
				want := g.Sample(rng, i)
				tr := got[i]
				if tr.ID != want.ID || tr.MeasFlips != want.MeasFlips ||
					math.Float64bits(tr.SampleU) != math.Float64bits(want.SampleU) ||
					!slices.Equal(tr.Inj, want.Inj) || (tr.Inj == nil) != (want.Inj == nil) {
					t.Fatalf("%s seed %d: trial %d = %v flips %b u %v, Sample gives %v flips %b u %v",
						name, seed, i, tr, tr.MeasFlips, tr.SampleU, want, want.MeasFlips, want.SampleU)
				}
			}
		}
	}
}

// TestGenerateInjectionsIsolated appends to each generated trial's
// injection list in turn and checks that no other trial's keys change,
// although all of them share one arena.
func TestGenerateInjectionsIsolated(t *testing.T) {
	g := generatorCases(t)["thinning"]
	trials := g.Generate(rand.New(rand.NewSource(5)), 300)
	want := make([][]Key, len(trials))
	for i, tr := range trials {
		want[i] = slices.Clone(tr.Inj)
	}
	extra := Pack(keyLayerMax, 0, gate.PauliZ)
	for i, tr := range trials {
		tr.Inj = append(tr.Inj, extra)
		want[i] = append(want[i], extra)
		for j, other := range trials {
			if !slices.Equal(other.Inj, want[j]) {
				t.Fatalf("append to trial %d changed trial %d: %v, want %v", i, j, other.Inj, want[j])
			}
		}
	}
}

// summarizeRef is the map-based Summarize the sorted-run counting
// replaced, kept as the reference it must agree with.
func summarizeRef(trials []*Trial) Stats {
	var st Stats
	st.Trials = len(trials)
	seen := make(map[string]bool, len(trials))
	var keyBuf []byte
	for _, t := range trials {
		st.TotalErrors += len(t.Inj)
		if len(t.Inj) > st.MaxErrors {
			st.MaxErrors = len(t.Inj)
		}
		if len(t.Inj) == 0 {
			st.ErrorFree++
		}
		keyBuf = keyBuf[:0]
		for _, k := range t.Inj {
			for s := 0; s < 64; s += 8 {
				keyBuf = append(keyBuf, byte(k>>uint(s)))
			}
		}
		seen[string(keyBuf)] = true
	}
	st.DistinctSeqs = len(seen)
	if st.Trials > 0 {
		st.MeanErrors = float64(st.TotalErrors) / float64(st.Trials)
		st.DuplicateRate = float64(st.Trials-st.DistinctSeqs) / float64(st.Trials)
	}
	return st
}

// TestSummarizeMatchesReference checks Summarize against the map-based
// reference on generation-order, sorted and reversed input, and that it
// leaves its input in place.
func TestSummarizeMatchesReference(t *testing.T) {
	if got := Summarize(nil); got != (Stats{}) {
		t.Errorf("Summarize(nil) = %+v", got)
	}
	for name, g := range generatorCases(t) {
		trials := g.Generate(rand.New(rand.NewSource(3)), 700)
		want := summarizeRef(trials)
		sorted := slices.Clone(trials)
		slices.SortStableFunc(sorted, Compare)
		reversed := slices.Clone(sorted)
		slices.Reverse(reversed)
		for order, in := range map[string][]*Trial{"generated": trials, "sorted": sorted, "reversed": reversed} {
			before := slices.Clone(in)
			if got := Summarize(in); got != want {
				t.Errorf("%s, %s input: Summarize = %+v, reference %+v", name, order, got, want)
			}
			if !slices.Equal(in, before) {
				t.Errorf("%s, %s input: Summarize reordered its input", name, order)
			}
		}
	}
}
