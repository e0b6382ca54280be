package nn

import (
	"math"
	"math/rand"
	"testing"
)

// randSamples builds a small random training set for a config, used to
// move every parity model off its initialisation before compiling.
func randSamples(cfg Config, n int, rng *rand.Rand) []Sample {
	out := make([]Sample, n)
	for i := range out {
		seq := make([][]float64, 4+rng.Intn(8))
		for t := range seq {
			row := make([]float64, cfg.InputDim)
			for k := range row {
				row[k] = rng.NormFloat64()
			}
			seq[t] = row
		}
		tgt := make([]float64, cfg.OutputDim)
		for k := range tgt {
			tgt[k] = rng.NormFloat64()
		}
		out[i] = Sample{Seq: seq, Target: tgt}
	}
	return out
}

// TestCompiledParity is the oracle check the fast path lives under: for
// randomized trained models — both LSTM and BiLSTM — PredictInto must
// match the reference Predict within 1e-12 on every output. The drift
// comes from the few-ulp fast activations, FMA rounding and, on the
// vector path, the two-bank column sum; it lands far inside the
// contract. Every eighth model uses the full S-VRF serving shape so
// the tolerance is exercised at production width, not just toy dims.
func TestCompiledParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const models = 120
	for i := 0; i < models; i++ {
		cfg := Config{
			InputDim:      1 + rng.Intn(4),
			Hidden:        1 + rng.Intn(12),
			OutputDim:     1 + rng.Intn(8),
			Bidirectional: i%2 == 0,
			Seed:          int64(i + 1),
		}
		if i%8 == 0 {
			cfg = Config{InputDim: 3, Hidden: 32, OutputDim: 12, Bidirectional: i%16 == 0, Seed: int64(i + 1)}
		}
		m, err := NewSeqRegressor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Two optimisation steps push the weights off their seeded
		// initialisation so the parity claim covers trained models.
		data := randSamples(cfg, 8, rng)
		m.clipNorm = 0
		m.TrainBatch(data, 1e-2, 1)
		m.TrainBatch(data, 1e-2, 1)

		c := m.Compile()
		s := c.GetScratch()
		dst := make([]float64, cfg.OutputDim)
		for trial := 0; trial < 4; trial++ {
			seq := randSamples(cfg, 1, rng)[0].Seq
			if trial == 3 {
				seq = nil // the empty-history edge must agree too
			}
			want := m.Predict(seq)
			got := c.PredictInto(dst, seq, s)
			for o := range want {
				if diff := math.Abs(got[o] - want[o]); diff > 1e-12 || math.IsNaN(got[o]) {
					t.Fatalf("model %d (bidir=%v) trial %d output %d: compiled %v reference %v (diff %g)",
						i, cfg.Bidirectional, trial, o, got[o], want[o], diff)
				}
			}
		}
		c.PutScratch(s)
	}
}

// compilePaths returns the model compiled for every step kernel this
// host can run: the portable Go step always, the AVX2/FMA kernel where
// the CPU has it.
func compilePaths(m *SeqRegressor) map[string]*Compiled {
	paths := map[string]*Compiled{"portable": m.compile(false)}
	if hasAVX2FMA {
		paths["vector"] = m.compile(true)
	}
	return paths
}

// sameOutput reports whether a compiled output agrees with the
// reference one: NaN exactly where the reference is NaN, and otherwise
// within the 1e-12 contract (infinities must match exactly).
func sameOutput(got, want float64) bool {
	if math.IsNaN(want) || math.IsNaN(got) {
		return math.IsNaN(want) && math.IsNaN(got)
	}
	if math.IsInf(want, 0) || math.IsInf(got, 0) {
		return got == want
	}
	return math.Abs(got-want) <= 1e-12
}

// TestCompiledParityEveryHidden runs the parity contract over every
// hidden size from 1 to 40, uni- and bidirectional, on both step
// kernels: sizes that are not a multiple of four exercise the padded
// units of the last block.
func TestCompiledParityEveryHidden(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for hidden := 1; hidden <= 40; hidden++ {
		for _, bidir := range []bool{false, true} {
			cfg := Config{InputDim: 3, Hidden: hidden, OutputDim: 5, Bidirectional: bidir, Seed: int64(hidden)}
			m, err := NewSeqRegressor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			data := randSamples(cfg, 4, rng)
			m.clipNorm = 0
			m.TrainBatch(data, 1e-2, 1)
			seqs := [][][]float64{randSamples(cfg, 1, rng)[0].Seq, randSamples(cfg, 1, rng)[0].Seq}
			for name, c := range compilePaths(m) {
				for i, seq := range seqs {
					want := m.Predict(seq)
					got := c.Predict(seq)
					for o := range want {
						if !sameOutput(got[o], want[o]) {
							t.Fatalf("%s hidden=%d bidir=%v seq %d output %d: compiled %v reference %v",
								name, hidden, bidir, i, o, got[o], want[o])
						}
					}
				}
			}
		}
	}
}

// TestCompiledNonFinite feeds NaN, infinite and saturating inputs
// through both step kernels: every output is NaN exactly where the
// reference output is NaN, and saturated gates land on the reference's
// values within the contract. Hidden sizes include padded ones, whose
// padding units see the same inputs.
func TestCompiledNonFinite(t *testing.T) {
	inf := math.Inf(1)
	inputs := map[string][]float64{
		"nan":            {math.NaN(), 0.5, 0.1},
		"+inf":           {inf, 0.5, 0.1},
		"-inf":           {0.5, -inf, 0.1},
		"inf-inf":        {inf, -inf, 0.1},
		"saturating":     {1e6, -1e6, 1e3},
		"huge":           {1e200, -1e200, 1e150},
		"tiny":           {5e-324, -5e-324, 1e-300},
		"tanh-threshold": {19.07, -19.07, 38.2},
	}
	rng := rand.New(rand.NewSource(29))
	for _, hidden := range []int{1, 3, 4, 5, 8, 13, 32} {
		for _, bidir := range []bool{false, true} {
			cfg := Config{InputDim: 3, Hidden: hidden, OutputDim: 4, Bidirectional: bidir, Seed: int64(hidden) + 100}
			m, err := NewSeqRegressor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for name, bad := range inputs {
				// The bad row sits mid-sequence so both directions
				// carry it through later steps.
				seq := randSamples(cfg, 1, rng)[0].Seq
				seq[len(seq)/2] = bad
				want := m.Predict(seq)
				for path, c := range compilePaths(m) {
					got := c.Predict(seq)
					for o := range want {
						if !sameOutput(got[o], want[o]) {
							t.Fatalf("%s %s hidden=%d bidir=%v output %d: compiled %v reference %v",
								path, name, hidden, bidir, o, got[o], want[o])
						}
					}
				}
			}
		}
	}
}

// TestStepActivations drives one step of each kernel with zero weights,
// so every gate pre-activation is its bias, and compares the resulting
// c and h with the stdlib formulas of the reference cell: NaN where the
// reference is NaN, saturation to the reference's limits, and a few
// ulp elsewhere, including a random sweep over the gate range.
func TestStepActivations(t *testing.T) {
	inf := math.Inf(1)
	special := []float64{0, 5e-324, -5e-324, 1e-300, 0.3, -0.3, 2, -2, 19.06, 19.08, -19.08,
		38.2, -38.2, 690, -690, 701, -701, 1e6, -1e6, 1e300, -1e300, inf, -inf, math.NaN()}
	rng := rand.New(rand.NewSource(31))
	pick := func(i int) float64 {
		if i < len(special) {
			return special[i]
		}
		return (rng.Float64()*2 - 1) * 50
	}
	const units = 4096
	cell := &blockCell{in: 1, hidden: units, blocks: units / 4, width: 1 + units}
	cell.w = make([]float64, cell.blocks*cell.width*16)
	cell.b = make([]float64, cell.blocks*16)
	c0 := make([]float64, units)
	for unit := 0; unit < units; unit++ {
		blk, u := unit/4, unit%4
		for g := 0; g < 4; g++ {
			// Rotate the special values through every gate position.
			cell.b[(blk*4+g)*4+u] = pick((unit + g*7) % (units - 1))
		}
		c0[unit] = pick((unit * 3) % (units - 1))
	}
	sig := func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
	close := func(got, want float64) bool {
		if math.IsNaN(want) || math.IsNaN(got) {
			return math.IsNaN(want) && math.IsNaN(got)
		}
		return got == want || math.Abs(got-want) <= 1e-14*math.Max(1, math.Abs(want))
	}
	for _, vec := range []bool{false, true} {
		if vec && !hasAVX2FMA {
			continue
		}
		xh := make([]float64, cell.stateLen())
		h := make([]float64, units)
		c := append([]float64(nil), c0...)
		if vec {
			z := make([]float64, 16*cell.blocks)
			lstmStepAVX2(&cell.w[0], &cell.b[0], &xh[0], &z[0], &h[0], &c[0], cell.blocks, cell.width)
		} else {
			cell.stepGo(xh, h, c)
		}
		for unit := 0; unit < units; unit++ {
			blk, u := unit/4, unit%4
			z := func(g int) float64 { return cell.b[(blk*4+g)*4+u] }
			wantC := sig(z(1))*c0[unit] + sig(z(0))*math.Tanh(z(2))
			wantH := sig(z(3)) * math.Tanh(wantC)
			if !close(c[unit], wantC) || !close(h[unit], wantH) {
				t.Fatalf("vec=%v unit %d (z=%v %v %v %v, c=%v): c=%v h=%v, want c=%v h=%v",
					vec, unit, z(0), z(1), z(2), z(3), c0[unit], c[unit], h[unit], wantC, wantH)
			}
		}
	}
}

// TestCompiledVariants covers the scratch/dst permutations PredictInto
// accepts: nil scratch, nil dst, both nil, and the pooled Predict. All
// variants must agree bit-for-bit with each other (they run the same
// kernel), and the whole family must sit within the 1e-12 contract of
// the reference output.
func TestCompiledVariants(t *testing.T) {
	cfg := Config{InputDim: 3, Hidden: 8, OutputDim: 6, Bidirectional: true, Seed: 3}
	m, err := NewSeqRegressor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	seq := randSamples(cfg, 1, rng)[0].Seq
	ref := m.Predict(seq)
	c := m.Compile()
	want := c.Predict(seq)
	for o := range want {
		if diff := math.Abs(want[o] - ref[o]); diff > 1e-12 {
			t.Fatalf("output %d: compiled %v vs reference %v (diff %g)", o, want[o], ref[o], diff)
		}
	}

	check := func(name string, got []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: got %d outputs, want %d", name, len(got), len(want))
		}
		for o := range want {
			if got[o] != want[o] {
				t.Fatalf("%s: output %d = %v, want %v", name, o, got[o], want[o])
			}
		}
	}
	check("nil-scratch", c.PredictInto(make([]float64, cfg.OutputDim), seq, nil))
	check("nil-both", c.PredictInto(nil, seq, nil))
	s := c.GetScratch()
	check("nil-dst", c.PredictInto(nil, seq, s))
	if got := c.PredictInto(nil, seq, s); &got[0] != &s.Out()[0] {
		t.Fatal("nil dst with scratch should fill the scratch's own buffer")
	}
	c.PutScratch(s)
}

// TestCompiledImmutable verifies the snapshot semantics: training the
// source model after Compile must not change the compiled outputs.
func TestCompiledImmutable(t *testing.T) {
	cfg := Config{InputDim: 2, Hidden: 6, OutputDim: 4, Bidirectional: true, Seed: 5}
	m, _ := NewSeqRegressor(cfg)
	rng := rand.New(rand.NewSource(11))
	seq := randSamples(cfg, 1, rng)[0].Seq
	c := m.Compile()
	before := append([]float64(nil), c.Predict(seq)...)
	m.TrainBatch(randSamples(cfg, 8, rng), 1e-2, 1)
	after := c.Predict(seq)
	for o := range before {
		if before[o] != after[o] {
			t.Fatalf("compiled output changed after source training: %v -> %v", before[o], after[o])
		}
	}
	// And a fresh compile picks the new weights up.
	if c2 := m.Compile(); c2.Predict(seq)[0] == before[0] {
		t.Fatal("recompile did not pick up trained weights")
	}
}

// TestPredictBatchMatches checks the batch path against per-sequence
// compiled prediction (bit-exact: same kernel) for every worker
// setting, including dst reuse.
func TestPredictBatchMatches(t *testing.T) {
	cfg := Config{InputDim: 3, Hidden: 8, OutputDim: 6, Bidirectional: true, Seed: 13}
	m, _ := NewSeqRegressor(cfg)
	c := m.Compile()
	rng := rand.New(rand.NewSource(17))
	seqs := make([][][]float64, 37)
	want := make([][]float64, len(seqs))
	for i := range seqs {
		seqs[i] = randSamples(cfg, 1, rng)[0].Seq
		want[i] = c.Predict(seqs[i])
	}
	var dst [][]float64
	for _, workers := range []int{0, 1, 3, 16} {
		dst = c.PredictBatch(dst, seqs, workers)
		if len(dst) != len(seqs) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(dst), len(seqs))
		}
		for i := range want {
			for o := range want[i] {
				if dst[i][o] != want[i][o] {
					t.Fatalf("workers=%d seq %d output %d: %v != %v", workers, i, o, dst[i][o], want[i][o])
				}
			}
		}
	}
}

// TestPredictIntoZeroAlloc is the allocation-regression gate of the
// tentpole: the steady-state fast path must not allocate at all.
func TestPredictIntoZeroAlloc(t *testing.T) {
	cfg := Config{InputDim: 3, Hidden: 32, OutputDim: 12, Bidirectional: true, Seed: 1}
	m, _ := NewSeqRegressor(cfg)
	c := m.Compile()
	rng := rand.New(rand.NewSource(19))
	seq := make([][]float64, 20)
	for t := range seq {
		seq[t] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.Float64()}
	}
	s := c.GetScratch()
	defer c.PutScratch(s)
	dst := make([]float64, cfg.OutputDim)
	if avg := testing.AllocsPerRun(200, func() {
		c.PredictInto(dst, seq, s)
	}); avg != 0 {
		t.Fatalf("PredictInto allocates %v per run, want 0", avg)
	}
}
