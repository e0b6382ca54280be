//go:build !amd64

package nn

// Non-amd64 builds never select the vector kernels: inference runs
// blockCell.stepGo and training the portable scalar loops.
const hasAVX2FMA = false

func lstmStepAVX2(w, b, xh, z, h, c *float64, blocks, width int) {
	panic("nn: vector kernel called on a platform without it")
}

func gemvHiddenAVX2(w, h, z *float64, hidden, width, in int) {
	panic("nn: vector kernel called on a platform without it")
}

func dotRows4AVX2(w, x, y *float64, groups, cols, stride int) {
	panic("nn: vector kernel called on a platform without it")
}

func deferredRank1AVX2(gw, x, a *float64, rows, cols, steps, gwStride, xStride, aStride int) {
	panic("nn: vector kernel called on a platform without it")
}
