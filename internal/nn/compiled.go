package nn

import "sync"

// This file implements the inference-only compiled path. The training
// forward pass (lstm.go) allocates a full backprop cache — eight slices
// per timestep per direction — and runs four separate gate GEMVs per
// step against four separate weight matrices. Neither is needed at
// serving time: the pipeline mounts one trained model and calls it from
// every vessel actor on the hot path, so inference cost per report is
// what bounds world-fleet-scale throughput.
//
// Compile() snapshots the trained weights into a gate-major block
// layout (blockCell): hidden units are grouped four to a block, and for
// every column j of [x_t ; h_{t-1}] a block stores its 16 weights as
// four gates × four units. One LSTM step is then one pass per block
// that broadcasts each column and multiply-accumulates it into four
// 4-wide gate accumulators — no horizontal reductions, and the input
// columns are just the first In columns. On AVX2/FMA hosts the whole
// step, activations and state update included, is one assembly call
// (lstmStepAVX2, kernel_avx2_amd64.s); elsewhere stepGo runs the same
// layout in portable Go. PredictInto walks the sequence with a
// ping-pong [x ; h] buffer pair and keeps every intermediate in a
// sync.Pool-backed Scratch arena, so the steady state allocates nothing.
//
// Numerics: the portable step sums each gate pre-activation in the
// reference order (bias, input columns, hidden columns); the vector
// kernel fuses the multiply-adds and sums even and odd columns in two
// banks. Both evaluate the activations through exponentials accurate
// to a few ulp. TestCompiledParity bounds the drift against the
// untouched reference Predict at 1e-12; observed drift on trained
// serving-shape models is ~2e-17.
//
// Training-only helpers: the row layout fusedCell, its stepVec/
// stepScalar GEMV passes and the gemvHiddenAVX2 kernel serve only the
// compiled training forward (train_compiled.go), whose backward kernels
// are built on that layout. act4 and tanhFast (fastmath.go) serve
// training and stepGo below.

// blockCell is the inference-only snapshot of one LSTM direction in
// gate-major blocks of four hidden units.
type blockCell struct {
	in, hidden int
	// blocks is ceil(hidden/4). Units past hidden are padding: their
	// weight rows and biases are zero, and no step reads their columns,
	// so they never influence a real unit (with finite inputs their c
	// and h stay exactly 0).
	blocks int
	// width is in + hidden: the columns of [x ; h] a step reads. The
	// state buffers hold in + 4*blocks values because the kernel writes
	// whole blocks of h.
	width int
	// w holds blocks × width × 16 weights: w[((b*width+j)*4+g)*4+u] is
	// gate g (input, forget, candidate, output) of unit 4b+u on column j.
	w []float64
	// b holds the biases in the same order: b[(b*4+g)*4+u].
	b []float64
}

func packBlocks(c *lstmCell) *blockCell {
	blocks := (c.Hidden + 3) / 4
	width := c.In + c.Hidden
	p := &blockCell{
		in: c.In, hidden: c.Hidden, blocks: blocks, width: width,
		w: make([]float64, blocks*width*16),
		b: make([]float64, blocks*16),
	}
	gates := [4]*matrix{c.Wi, c.Wf, c.Wg, c.Wo}
	biases := [4]*matrix{c.Bi, c.Bf, c.Bg, c.Bo}
	for unit := 0; unit < c.Hidden; unit++ {
		blk, u := unit/4, unit%4
		for g := 0; g < 4; g++ {
			row := gates[g].W[unit*width : (unit+1)*width]
			for j, v := range row {
				p.w[((blk*width+j)*4+g)*4+u] = v
			}
			p.b[(blk*4+g)*4+u] = biases[g].W[unit]
		}
	}
	return p
}

// stateLen is the length of one [x ; h] buffer and, minus in, of c.
func (p *blockCell) stateLen() int { return p.in + 4*p.blocks }

// run walks the sequence (reversed when reverse is set) and returns the
// final hidden state as a slice of xh or xhN, so callers must copy it
// before reusing the scratch. xh and xhN are the ping-pong [x ; h]
// buffers, c the cell state; each step reads one and writes h into the
// other. vec selects the AVX2/FMA kernel, which uses z (16 per block)
// for its pre-activations.
func (p *blockCell) run(seq [][]float64, reverse, vec bool, xh, xhN, c, z []float64) []float64 {
	in := p.in
	xh = xh[:p.stateLen()]
	xhN = xhN[:p.stateLen()]
	c = c[:4*p.blocks]
	clear(xh[in:])
	clear(c)
	n := len(seq)
	for t := 0; t < n; t++ {
		x := seq[t]
		if reverse {
			x = seq[n-1-t]
		}
		copy(xh[:in], x[:in])
		if vec {
			lstmStepAVX2(&p.w[0], &p.b[0], &xh[0], &z[:16*p.blocks][0], &xhN[in], &c[0], p.blocks, p.width)
		} else {
			p.stepGo(xh, xhN[in:], c)
		}
		xh, xhN = xhN, xh
	}
	return xh[in : in+p.hidden]
}

// stepGo is the portable form of lstmStepAVX2 over the same layout: one
// LSTM step from xh into h (4*blocks values) and c, in place.
func (p *blockCell) stepGo(xh, h, c []float64) {
	width := p.width
	xh = xh[:width]
	for blk := 0; blk < p.blocks; blk++ {
		var z [16]float64
		copy(z[:], p.b[blk*16:(blk+1)*16])
		w := p.w[blk*width*16 : (blk+1)*width*16]
		for j, v := range xh {
			col := w[j*16 : j*16+16]
			for k := range z {
				z[k] = madd(col[k], v, z[k])
			}
		}
		cb := c[blk*4 : blk*4+4]
		hb := h[blk*4 : blk*4+4]
		for u := 0; u < 4; u++ {
			ig, fg, gg, og := act4(z[u], z[4+u], z[8+u], z[12+u])
			cb[u] = fg*cb[u] + ig*gg
			hb[u] = og * tanhFast(cb[u])
		}
	}
}

// Scratch is the reusable per-call state arena of a Compiled model: the
// ping-pong LSTM state buffers, the encoder output, and an output
// vector for callers that do not bring their own. One Scratch serves
// one PredictInto call at a time; use one per goroutine, or let
// PredictInto draw from the model's internal pool by passing nil.
type Scratch struct {
	xh, xhN []float64 // ping-pong [x ; h] step buffers
	c       []float64 // cell state, in place
	z       []float64 // gate pre-activations of the vector kernel
	enc     []float64
	out     []float64
}

// Out returns the scratch's own output buffer (length OutputDim). It is
// the buffer PredictInto fills when dst is nil; its contents are valid
// until the scratch is reused or returned to the pool.
func (s *Scratch) Out() []float64 { return s.out }

// Compiled is an immutable, inference-only snapshot of a trained
// SeqRegressor. It shares no storage with the source model, so training
// the source further never races a Compiled in use; recompile to pick
// up new weights. All methods are safe for concurrent use.
type Compiled struct {
	cfg    Config
	fw     *blockCell
	bw     *blockCell // nil when unidirectional
	vec    bool       // run steps through the AVX2/FMA kernel
	encDim int
	outW   []float64 // OutputDim x encDim, row-major
	outB   []float64 // OutputDim
	pool   sync.Pool // *Scratch
}

// Compile snapshots the model's current weights into the block
// inference layout. The returned Compiled matches the reference Predict
// at the time of the call within the 1e-12 parity contract.
func (m *SeqRegressor) Compile() *Compiled { return m.compile(hasAVX2FMA) }

// compile is Compile with the step kernel chosen by the caller: vec
// selects the AVX2/FMA kernel and must only be set where hasAVX2FMA
// holds. Tests use it to run the portable path on vector hosts.
func (m *SeqRegressor) compile(vec bool) *Compiled {
	c := &Compiled{
		cfg:    m.cfg,
		fw:     packBlocks(m.fw),
		vec:    vec,
		encDim: m.cfg.Hidden,
		outW:   append([]float64(nil), m.out.W...),
		outB:   append([]float64(nil), m.ob.W...),
	}
	if m.bw != nil {
		c.bw = packBlocks(m.bw)
		c.encDim = 2 * m.cfg.Hidden
	}
	c.pool.New = func() any {
		n := c.fw.stateLen()
		return &Scratch{
			xh:  make([]float64, n),
			xhN: make([]float64, n),
			c:   make([]float64, 4*c.fw.blocks),
			z:   make([]float64, 16*c.fw.blocks),
			enc: make([]float64, c.encDim),
			out: make([]float64, c.cfg.OutputDim),
		}
	}
	return c
}

// Config returns the compiled model's configuration.
func (c *Compiled) Config() Config { return c.cfg }

// GetScratch draws a scratch arena from the model's pool. Callers that
// predict in a loop should hold one scratch for the whole loop instead
// of paying the pool round-trip per call.
func (c *Compiled) GetScratch() *Scratch { return c.pool.Get().(*Scratch) }

// PutScratch returns a scratch to the pool.
func (c *Compiled) PutScratch(s *Scratch) { c.pool.Put(s) }

// PredictInto runs the compiled forward pass over seq and writes the
// OutputDim outputs into dst, which it returns. A nil dst selects the
// scratch's own output buffer; a nil scratch draws one from the
// internal pool for the duration of the call. With a non-nil dst and
// scratch the call does not allocate.
func (c *Compiled) PredictInto(dst []float64, seq [][]float64, s *Scratch) []float64 {
	if s == nil {
		s = c.GetScratch()
		defer c.PutScratch(s)
		if dst == nil {
			// The scratch goes back to the pool at return, so its out
			// buffer cannot carry the result.
			dst = make([]float64, c.cfg.OutputDim)
		}
	}
	if dst == nil {
		dst = s.out
	}
	dst = dst[:c.cfg.OutputDim]
	if len(seq) == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	enc := s.enc[:c.encDim]
	hFinal := c.fw.run(seq, false, c.vec, s.xh, s.xhN, s.c, s.z)
	copy(enc[:c.cfg.Hidden], hFinal)
	if c.bw != nil {
		hFinal = c.bw.run(seq, true, c.vec, s.xh, s.xhN, s.c, s.z)
		copy(enc[c.cfg.Hidden:], hFinal)
	}
	for o := 0; o < c.cfg.OutputDim; o++ {
		row := c.outW[o*c.encDim : (o+1)*c.encDim]
		z := c.outB[o]
		for k, e := range enc {
			z = madd(row[k], e, z)
		}
		dst[o] = z
	}
	return dst
}

// Predict is the allocating convenience wrapper over PredictInto: it
// returns a fresh output vector and manages scratch internally.
func (c *Compiled) Predict(seq [][]float64) []float64 {
	return c.PredictInto(make([]float64, c.cfg.OutputDim), seq, nil)
}

// PredictBatch runs the compiled forward pass over many sequences —
// the bulk shape of the Figure 6 replay and the VTFF rasterisation.
// dst is reused row-by-row when it has capacity (rows of length
// OutputDim are written in place; short or missing rows are allocated).
// workers > 1 spreads the batch over that many goroutines, each with
// its own pooled scratch; workers <= 0 selects one worker per
// sequence up to the number of pool-backed scratches worth holding
// (len(seqs) capped at 8). The result has one row per input sequence.
func (c *Compiled) PredictBatch(dst [][]float64, seqs [][][]float64, workers int) [][]float64 {
	if cap(dst) >= len(seqs) {
		dst = dst[:len(seqs)]
	} else {
		old := dst
		dst = make([][]float64, len(seqs))
		copy(dst, old)
	}
	for i := range dst {
		if len(dst[i]) != c.cfg.OutputDim {
			dst[i] = make([]float64, c.cfg.OutputDim)
		}
	}
	if workers <= 0 {
		workers = len(seqs)
		if workers > 8 {
			workers = 8
		}
	}
	if workers > len(seqs) {
		workers = len(seqs)
	}
	if workers <= 1 {
		s := c.GetScratch()
		for i, seq := range seqs {
			c.PredictInto(dst[i], seq, s)
		}
		c.PutScratch(s)
		return dst
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := c.GetScratch()
			for i := w; i < len(seqs); i += workers {
				c.PredictInto(dst[i], seqs[i], s)
			}
			c.PutScratch(s)
		}(w)
	}
	wg.Wait()
	return dst
}
