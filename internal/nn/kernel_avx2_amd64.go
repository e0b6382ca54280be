package nn

// AVX2/FMA kernel for the compiled inference path: one LSTM step of
// one direction in a single call (see blockCell in compiled.go for the
// layout). For every block of four hidden units it broadcasts each
// column of [x ; h] and multiply-accumulates it into four 4-wide gate
// accumulators; a second pass over the blocks evaluates the three
// sigmoids, two tanhs and the cell update in registers and writes each
// block's h and c. The exponential needs no table: 2^k goes straight
// into the exponent bits and the residual runs through a degree-12
// polynomial.
//
// The kernel is only selected when the CPU and OS support AVX2+FMA
// (checked once via CPUID/XGETBV below); every other configuration
// uses the portable blockCell.stepGo over the same layout.

// cpuidx executes CPUID with the given leaf/subleaf.
func cpuidx(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0; only valid when CPUID reports OSXSAVE.
func xgetbv0() (low, high uint32)

// lstmStepAVX2 runs one LSTM step for blocks blocks of four units:
// reading columns xh[0:width] (the input, then the previous h), it
// writes h[0:4*blocks] and updates c[0:4*blocks] in place. w and b
// are a blockCell's weights and biases; z[0:16*blocks] is scratch for
// the gate pre-activations. h must not overlap xh[0:width].
//
//go:noescape
func lstmStepAVX2(w, b, xh, z, h, c *float64, blocks, width int)

// hasAVX2FMA reports whether the vector kernel may run: AVX2 and FMA
// in hardware, and YMM state enabled by the OS.
var hasAVX2FMA = func() bool {
	maxLeaf, _, _, _ := cpuidx(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuidx(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
	)
	if c1&fmaBit == 0 || c1&osxsaveBit == 0 {
		return false
	}
	if lo, _ := xgetbv0(); lo&0x6 != 0x6 { // XMM and YMM state saved
		return false
	}
	_, b7, _, _ := cpuidx(7, 0)
	return b7&(1<<5) != 0 // AVX2
}()
