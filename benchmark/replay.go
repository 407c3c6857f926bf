package main

import (
	"math"
	"time"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/exec"
	"pbqpdnn/internal/gemm"
	"pbqpdnn/internal/obs"
	"pbqpdnn/internal/program"
	"pbqpdnn/internal/tensor"
)

// Layer replays: single kernels of the workload's compiled program,
// re-run alone on generated data of the same shape through the public
// entry point the engine binds them to. They answer "how fast is this
// layer's kernel", which the engine's LayerTable cannot separate from
// scheduling. Bandwidth figures divide bytes computed from tensor sizes
// (input plus output payload) by wall time; nothing is read from
// hardware counters.

const replayReps = 5

// bestSeconds is the minimum wall of reps calls of fn, recorded as one
// span carrying the repetition count.
func bestSeconds(tr *Tracer, name string, reps int, fn func()) float64 {
	best := math.Inf(1)
	start := time.Now()
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fn()
		best = math.Min(best, time.Since(t0).Seconds())
	}
	tr.add(name, 0, 0, start, time.Now(), map[string]any{"reps": reps, "best_ms": best * 1e3})
	return best
}

func randomBatch(l tensor.Layout, n, c, h, w int, seed int64) *tensor.Batch {
	b := tensor.NewBatch(l, n, c, h, w)
	for i := 0; i < n; i++ {
		b.Image(i).FillRandom(seed + int64(i))
	}
	return b
}

// packedRows is gemm.Packed with A's rows split across the thread
// budget, the split the conv primitives apply to their patch GEMM.
func packedRows(threads, m, n, k int, a, b, c []float32) {
	if threads <= 1 {
		gemm.Packed(m, n, k, a, b, c)
		return
	}
	rows := (m + threads - 1) / threads
	conv.ParallelFor(threads, threads, func(i int) {
		lo, hi := i*rows, min((i+1)*rows, m)
		if lo < hi {
			gemm.Packed(hi-lo, n, k, a[lo*k:hi*k], b, c[lo*n:hi*n])
		}
	})
}

// largest returns the instruction of the given ops with the biggest
// output, or nil when the program has none.
func largest(prog *program.Program, ops ...program.Op) *program.Instr {
	var best *program.Instr
	for i := range prog.Instrs {
		ins := &prog.Instrs[i]
		for _, op := range ops {
			if ins.Op == op && (best == nil || ins.DataLen() > best.DataLen()) {
				best = ins
			}
		}
	}
	return best
}

// argBatch generates a batch shaped like the instruction's first input.
func argBatch(prog *program.Program, ins *program.Instr, n int) *tensor.Batch {
	a := &prog.Instrs[ins.Args[0]]
	return randomBatch(a.Layout, n, a.C, a.H, a.W, 7)
}

func gbps(bytes int64, seconds float64) float64 { return float64(bytes) / seconds / 1e9 }

// replayLayers fills the conv.*, gemm.*, program.*_g{flops,bps} and
// tensor.* metrics from the program the workload ran. A metric whose
// layer kind the program does not contain is reported as 0.
func replayLayers(rec *Record, tr *Tracer, prog *program.Program, w *exec.Weights, table *obs.LayerTable, threads int) {
	n := prog.Batch

	// The plan's most expensive convolution, by observed engine time
	// (every network here has convolutions).
	var top *program.Instr
	var topNS int64 = -1
	for _, row := range table.Rows {
		if row.Op == "conv" && row.ObservedNS > topNS {
			top, topNS = &prog.Instrs[row.Instr], row.ObservedNS
		}
	}
	sc, prim := top.Layer.Conv, top.Prim
	in := randomBatch(prim.In, n, sc.C, sc.H, sc.W, 11)
	dst := tensor.NewBatch(prim.Out, n, sc.M, sc.OutH(), sc.OutW())
	k := w.Kernels[top.Layer.ID]
	convS := bestSeconds(tr, "conv.run_batch", replayReps, func() { conv.RunBatchInto(prim, dst, in, k, sc, threads) })
	rec.set("conv.top_layer_ms", convS*1e3, "ms")
	rec.set("conv.top_layer_gflops", float64(n)*sc.Flops()/convS/1e9, "GFLOP/s")
	rec.Notes["conv.top_layer_ms"] = top.Name + " " + prim.Name + " " + sc.String()

	// The GEMM that layer implies under the im2row formulation:
	// (N·Ho·Wo) × M × (C·K²), with nothing around it.
	gm, gn, gk := n*sc.OutH()*sc.OutW(), sc.M, sc.C*sc.K*sc.K
	a, b, c := make([]float32, gm*gk), make([]float32, gk*gn), make([]float32, gm*gn)
	fillRandom(a, 13)
	fillRandom(b, 17)
	gemmS := bestSeconds(tr, "gemm.packed", replayReps, func() { packedRows(threads, gm, gn, gk, a, b, c) })
	rec.set("gemm.layer_gflops", 2*float64(gm)*float64(gn)*float64(gk)/gemmS/1e9, "GFLOP/s")
	rec.set("conv.overhead_share", 1-gemmS/convS, "ratio")

	// Winograd against im2row-pack on the largest 3×3 stride-1 layer.
	rec.set("conv.wino_over_im2row_x", winoOverIm2row(tr, prog, w, threads), "ratio")

	sq := 512
	a, b, c = make([]float32, sq*sq), make([]float32, sq*sq), make([]float32, sq*sq)
	fillRandom(a, 19)
	fillRandom(b, 23)
	s := bestSeconds(tr, "gemm.packed_square", replayReps, func() { gemm.Packed(sq, sq, sq, a, b, c) })
	rec.set("gemm.square_gflops", 2*math.Pow(float64(sq), 3)/s/1e9, "GFLOP/s")

	// AlexNet fc6 as a GEMM: one activation row against a 4096×9216
	// transposed weight panel, streamed once.
	fcOut, fcIn := 4096, 9216
	bt, x, y := make([]float32, fcOut*fcIn), make([]float32, fcIn), make([]float32, fcOut)
	fillRandom(x, 29)
	fillRandom(bt[:fcIn], 31)
	for r := 1; r < fcOut; r++ {
		copy(bt[r*fcIn:(r+1)*fcIn], bt[:fcIn])
	}
	s = bestSeconds(tr, "gemm.transb_skinny", 3, func() { gemm.TransB(1, fcOut, fcIn, x, bt, y) })
	rec.set("gemm.skinny_gflops", 2*float64(fcOut)*float64(fcIn)/s/1e9, "GFLOP/s")

	rec.set("program.fc_gflops", 0, "GFLOP/s")
	if ins := largestFC(prog, w); ins != nil {
		in := argBatch(prog, ins, n)
		dst := tensor.NewBatch(ins.Layout, n, ins.C, ins.H, ins.W)
		mat, out := w.FC[ins.Layer.ID], ins.Layer.FCOut
		s := bestSeconds(tr, "program.fc", replayReps, func() { program.FCBatchInto(dst, in, mat, out, threads) })
		rec.set("program.fc_gflops", 2*float64(n)*float64(len(mat))/s/1e9, "GFLOP/s")
	}

	slab := func(metric, span string, ins *program.Instr, run func(dst, in *tensor.Batch)) {
		rec.set(metric, 0, "GB/s")
		if ins == nil {
			return
		}
		in := argBatch(prog, ins, n)
		dst := tensor.NewBatch(ins.Layout, n, ins.C, ins.H, ins.W)
		s := bestSeconds(tr, span, replayReps, func() { run(dst, in) })
		rec.set(metric, gbps(in.Bytes()+dst.Bytes(), s), "GB/s")
	}
	slab("program.lrn_gbps", "program.lrn", largest(prog, program.OpLRN), func(dst, in *tensor.Batch) {
		program.LRNBatchInto(dst, in, threads)
	})
	pool := largest(prog, program.OpMaxPool, program.OpAvgPool)
	slab("program.pool_gbps", "program.pool", pool, func(dst, in *tensor.Batch) {
		program.PoolBatchInto(dst, in, pool.Layer, pool.Op == program.OpMaxPool, threads)
	})
	slab("program.eltwise_gbps", "program.relu", largest(prog, program.OpReLU), func(dst, in *tensor.Batch) {
		program.ReLUBatchInto(dst, in, threads)
	})
	cvt := largest(prog, program.OpConvert)
	slab("program.convert_gbps", "program.convert", cvt, func(dst, in *tensor.Batch) {
		program.ConvertBatchInto(dst, in, threads)
	})
	slab("tensor.convert_gbps", "tensor.convert", cvt, func(dst, in *tensor.Batch) {
		for i := 0; i < n; i++ {
			tensor.ConvertInto(dst.Image(i), in.Image(i))
		}
	})
}

// largestFC returns the FC instruction with the biggest weight matrix.
func largestFC(prog *program.Program, w *exec.Weights) *program.Instr {
	var best *program.Instr
	for i := range prog.Instrs {
		ins := &prog.Instrs[i]
		if ins.Op == program.OpFC && (best == nil || len(w.FC[ins.Layer.ID]) > len(w.FC[best.Layer.ID])) {
			best = ins
		}
	}
	return best
}

// winoOverIm2row times the best batched 2-D Winograd primitive against
// im2row-pack on the program's largest 3×3 stride-1 convolution and
// returns Winograd time ÷ im2row time (below 1 = Winograd wins). The
// library's batched Winograd ignores the VF hint, so one candidate per
// (tile size, layout) is timed once to find the best, which is then
// timed like im2row. 0 when the program has no such layer.
func winoOverIm2row(tr *Tracer, prog *program.Program, w *exec.Weights, threads int) float64 {
	var layer *program.Instr
	for i := range prog.Instrs {
		ins := &prog.Instrs[i]
		if ins.Op != program.OpConv || ins.Layer.Conv.K != 3 || ins.Layer.Conv.Stride != 1 {
			continue
		}
		if layer == nil || ins.Layer.Conv.Flops() > layer.Layer.Conv.Flops() {
			layer = ins
		}
	}
	if layer == nil {
		return 0
	}
	sc, k, n := layer.Layer.Conv, w.Kernels[layer.Layer.ID], prog.Batch
	lib := conv.Library()
	run := func(p *conv.Primitive, span string, reps int) float64 {
		in := randomBatch(p.In, n, sc.C, sc.H, sc.W, 37)
		dst := tensor.NewBatch(p.Out, n, sc.M, sc.OutH(), sc.OutW())
		return bestSeconds(tr, span, reps, func() { conv.RunBatchInto(p, dst, in, k, sc, threads) })
	}
	im2row, err := conv.ByName(lib, "im2row-pack")
	if err != nil {
		return 0
	}
	type variant struct {
		m  int
		in tensor.Layout
	}
	seen := map[variant]bool{}
	var best *conv.Primitive
	bestS := math.Inf(1)
	for _, p := range conv.Supporting(lib, sc) {
		v := variant{p.WinoM, p.In}
		if p.Family != conv.FamilyWinograd || !p.Wino2D || p.RunBatch == nil || seen[v] {
			continue
		}
		seen[v] = true
		if s := run(p, "conv.wino_probe", 1); s < bestS {
			best, bestS = p, s
		}
	}
	if best == nil {
		return 0
	}
	return run(best, "conv.wino_best", 2) / run(im2row, "conv.im2row_pack", 2)
}
