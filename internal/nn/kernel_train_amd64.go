package nn

// Training-only AVX2/FMA kernels (kernel_train_amd64.s). All three are
// gated by the same hasAVX2FMA check as the inference step kernel and
// are only reached on the fusedTrain vector path, which requires hidden
// to be a positive multiple of 4.

// gemvHiddenAVX2 adds the hidden-state contribution to the
// pre-activation buffer: for every unit u and gate g,
// z[4u+g] += dot(w[(4u+g)*width+in : (4u+g+1)*width], h[:hidden]).
// z must already hold bias + input contributions. hidden must be a
// positive multiple of 4; h must have exactly hidden elements.
//
//go:noescape
func gemvHiddenAVX2(w, h, z *float64, hidden, width, in int)

// dotRows4AVX2 accumulates row dot products in groups of four:
// y[r] += dot(w[r*stride : r*stride+cols], x[:cols]) for every
// r in [0, 4*groups). cols must be a positive multiple of 4; stride is
// in elements. The backward pass uses it with the transposed hidden
// block (rows of length 4H, stride 4H, groups = hidden/4) to compute
// the hidden-state gradient GEMV.
//
//go:noescape
func dotRows4AVX2(w, x, y *float64, groups, cols, stride int)

// deferredRank1AVX2 accumulates every timestep's rank-1 weight-gradient
// update in one GEMM-shaped call:
// gw[r*gwStride + c] += sum over t of a[t*aStride + r] * x[t*xStride + c]
// for r in [0, rows), c in [0, cols), t in [0, steps). rows must be a
// positive multiple of 4, cols a positive multiple of 4, steps >= 1;
// strides are in elements. Registers hold a 4-row x 8-column tile of gw
// across the whole t loop, so each gradient element is loaded and
// stored once per sample instead of once per timestep — the per-step
// rank-1 form was memory-bound on exactly that re-streaming.
//
//go:noescape
func deferredRank1AVX2(gw, x, a *float64, rows, cols, steps, gwStride, xStride, aStride int)
