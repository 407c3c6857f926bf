package exec

// This file implements the batched, branch-parallel execution engine.
// Where Run (exec.go) walks the network one layer at a time with a
// fresh allocation per operator — the correctness oracle — the Engine
// is the production path. Construction compiles the legalized plan into
// the Program IR (internal/program) for a fixed maximum batch size: a
// topologically ordered instruction stream whose kernels, dependency
// counts and buffer slots are all resolved once, with the memory plan
// sized by N so the whole minibatch executes against one statically
// planned slot frame.
//
// The batch dimension is first-class: each instruction processes the
// entire minibatch in one kernel call (im2col across N feeding one
// tall GEMM, the Winograd kernel transform amortized over every
// image's tiles, slab operators striding over N), rather than the
// per-image frame loop of the earlier engine, which ran every
// instruction N times. A dependency-counting DAG scheduler dispatches
// ready instructions onto a worker pool sized by the plan's Threads
// budget — independent inception branches and residual shortcuts still
// run concurrently — and a batched instruction left alone on the pool
// inherits the whole thread budget, splitting its images, GEMM rows or
// Winograd tile blocks across the idle workers so chain networks cannot
// strand the budget. Batch 1 is no special case: a maxBatch-1 engine
// binds the same batched kernels over a one-image frame, with
// convolution outputs in planned slots like every other value.

import (
	"context"
	"fmt"
	"runtime"
	"runtime/trace"
	"sync"
	"sync/atomic"
	"time"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/gemm"
	"pbqpdnn/internal/obs"
	"pbqpdnn/internal/program"
	"pbqpdnn/internal/selector"
	"pbqpdnn/internal/tensor"
)

// Engine executes one compiled program repeatedly. An Engine is safe
// for concurrent use — the serving layer (internal/serve) depends on
// this. The audit trail for the contract:
//
//   - prog, kerns and w are written only during construction and
//     read-only afterwards;
//   - every RunBatch call owns its scheduler state (batchState),
//     including its slot-frame buffers, so calls share no mutable
//     structures;
//   - the arena, the one shared mutable structure, synchronizes get/put
//     internally, and frame buffers are returned to it only after the
//     batch's outputs (always fresh, never slot-backed) are extracted.
//
// The plan and weights must not be mutated while the Engine is in use.
// One caveat for concurrent callers: each RunBatch call runs its own
// worker pool, so K concurrent calls schedule up to K×workers
// CPU-bound goroutines — safe, but past GOMAXPROCS they only dilute
// each other. Callers wanting one shared dispatch pipeline should
// multiplex through a single RunBatch stream (serve.Batcher does
// exactly this).
type Engine struct {
	prog     *program.Program
	w        *Weights
	workers  int
	maxBatch int

	// kerns holds one bound kernel per instruction: the batched
	// primitive call, batched layer operator, or fused conversion, with
	// weights and destination policy resolved at construction.
	kerns []kernelFn

	arena *arena

	// prof, when non-nil, is the per-instruction timing profile
	// (internal/obs): sampled RunBatch chunks time every instruction
	// with lock-free atomic accumulation. Set once via EnableProfiling
	// before the engine is shared; nil keeps the hot path at two nil
	// checks per task and zero allocations.
	prof *obs.Profile
}

// kernelFn executes one instruction over the whole minibatch of one
// RunBatch chunk and returns the produced batched value.
type kernelFn func(st *batchState, threads int) (*tensor.Batch, error)

// NewEngineBatch compiles the plan into the Program IR for minibatches
// of up to maxBatch images and binds every instruction's kernel. The
// memory plan — slot capacities, in-place marks — is sized by
// maxBatch; RunBatch calls with fewer images execute against the same
// frame (using a prefix of each slot), and calls with more images are
// split into maxBatch-sized chunks. Serving processes that see several
// batch sizes should hold one engine per batch-size bucket
// (serve.Registry does) so every dispatch lands on a pre-planned
// program.
func NewEngineBatch(plan *selector.Plan, w *Weights, maxBatch int) (*Engine, error) {
	prog, err := program.CompileBatch(plan, maxBatch)
	if err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	return NewEngineFromProgram(prog, w)
}

// NewEngineFromProgram binds kernels over an already-compiled program,
// sized by the program's Batch. Callers that time or verify
// compilation separately (the benchmark harness) and the translation
// validator's fuzz and mutation harnesses, which execute instruction
// streams that never came out of CompileBatch, build engines here;
// NewEngineBatch is CompileBatch followed by this. The program must be
// structurally sound (Validate-level) or construction and execution
// may panic.
func NewEngineFromProgram(prog *program.Program, w *Weights) (*Engine, error) {
	if prog == nil || prog.Plan == nil {
		return nil, fmt.Errorf("exec: nil program")
	}
	if prog.Batch < 1 {
		return nil, fmt.Errorf("exec: program compiled for invalid batch %d", prog.Batch)
	}
	// The plan's Threads value is a budget, not a mandate: running more
	// CPU-bound tasks than the runtime has processors only interleaves
	// half-finished convolutions on the same core and thrashes its
	// caches, so the pool is capped at GOMAXPROCS.
	workers := prog.Plan.Threads
	if workers < 1 {
		workers = 1
	}
	if procs := runtime.GOMAXPROCS(0); workers > procs {
		workers = procs
	}
	e := &Engine{
		prog:     prog,
		w:        w,
		workers:  workers,
		maxBatch: prog.Batch,
		arena:    newArena(),
	}
	if err := e.bindKernels(); err != nil {
		return nil, err
	}
	return e, nil
}

// Program exposes the compiled IR (for stats reporting and tests).
func (e *Engine) Program() *program.Program { return e.prog }

// MaxBatch reports the batch size the program's memory plan was sized
// for (larger RunBatch calls are chunked).
func (e *Engine) MaxBatch() int { return e.maxBatch }

// dst materializes the destination batch for an out-of-place
// instruction: the tenant view of its planned slot, or a fresh
// caller-owned allocation for the network output. Blocked-layout slot
// tenants clear their view first — their padding lanes must hold zeros
// and their kernels write only logical elements; plain layouts skip the
// memset because every physical element is a logical element the
// kernel overwrites.
func (e *Engine) dst(st *batchState, ins *program.Instr) *tensor.Batch {
	if ins.Slot == program.NoSlot {
		return tensor.NewBatch(ins.Layout, st.n, ins.C, ins.H, ins.W)
	}
	buf := st.bufs[ins.Slot][:ins.DataLen()*st.n]
	if ins.Layout.BlockSize() > 0 {
		clear(buf)
	}
	return tensor.NewBatchWith(ins.Layout, st.n, ins.C, ins.H, ins.W, buf)
}

// out materializes any instruction's destination, honoring in-place
// donation: an in-place instruction writes straight into its donor's
// batch, which the memory planner proved dead.
func (e *Engine) out(st *batchState, ins *program.Instr) *tensor.Batch {
	if ins.Donor >= 0 {
		return st.vals[ins.Args[ins.Donor]]
	}
	return e.dst(st, ins)
}

// bindKernels resolves every instruction to a closure over its
// pre-fetched primitive, weights, and geometry — the one type switch,
// paid at construction instead of per task.
func (e *Engine) bindKernels() error {
	e.kerns = make([]kernelFn, len(e.prog.Instrs))
	for i := range e.prog.Instrs {
		ins := &e.prog.Instrs[i]
		l := ins.Layer
		switch ins.Op {
		case program.OpInput:
			e.kerns[i] = func(st *batchState, threads int) (*tensor.Batch, error) {
				// Copy-on-identity into engine-owned storage: outputs and
				// intermediates must never alias the caller's inputs.
				// ConvertInto degenerates to a straight copy when a
				// caller's layout already matches the plan's.
				out := e.out(st, ins)
				program.InputBatchInto(out, st.inputs, threads)
				return out, nil
			}

		case program.OpConv:
			prim, sc := ins.Prim, l.Conv
			k := e.w.Kernels[l.ID]
			if k == nil {
				return fmt.Errorf("exec: no weights for conv layer %q", l.Name)
			}
			// Bind-time geometry validation: the batched kernels write
			// into engine-provided destinations and treat mismatches as
			// programming errors (panics), so anything a corrupted plan
			// or weight set could get wrong must fail engine
			// construction with an error instead, which the serving
			// layer can report.
			if sc.M != l.OutC || sc.OutH() != l.OutH || sc.OutW() != l.OutW {
				return fmt.Errorf("exec: layer %q scenario %s produces %d×%d×%d, layer wants %d×%d×%d",
					l.Name, sc, sc.M, sc.OutH(), sc.OutW(), l.OutC, l.OutH, l.OutW)
			}
			if k.M != sc.M || k.C != sc.C || k.K != sc.K {
				return fmt.Errorf("exec: layer %q kernel M=%d C=%d K=%d does not match scenario %s",
					l.Name, k.M, k.C, k.K, sc)
			}
			// Fused-instruction geometry is validated at bind time too:
			// the fused kernels treat mismatches as panics, so a program
			// that reaches execution (fuzz-accepted mutants included) must
			// have failed construction first if its fusion fields are
			// inconsistent.
			epi := ins.Epi
			hasRes := epi == gemm.EpiAdd || epi == gemm.EpiAddReLU
			switch epi {
			case gemm.EpiNone, gemm.EpiReLU, gemm.EpiAdd, gemm.EpiAddReLU:
			default:
				return fmt.Errorf("exec: layer %q carries unsupported epilogue %s", l.Name, epi)
			}
			if hasRes {
				if len(ins.Args) != 2 {
					return fmt.Errorf("exec: layer %q epilogue %s has no residual operand", l.Name, epi)
				}
				r := &e.prog.Instrs[ins.Args[1]]
				if r.Layout != ins.Layout || r.DataLen() != ins.DataLen() {
					return fmt.Errorf("exec: layer %q residual %q mismatches output geometry", l.Name, r.Name)
				}
			} else if len(ins.Args) != 1 {
				return fmt.Errorf("exec: layer %q conv has %d args", l.Name, len(ins.Args))
			}
			wantIn := prim.In
			if len(ins.CvtIn) > 0 {
				if len(ins.CvtIn) != 1 || ins.CvtIn[0].To != prim.In || !prim.CanAbsorbInput(ins.CvtIn[0].From) {
					return fmt.Errorf("exec: layer %q: primitive %s cannot absorb input conversion", l.Name, prim.Name)
				}
				wantIn = ins.CvtIn[0].From
			}
			e.kerns[i] = func(st *batchState, threads int) (*tensor.Batch, error) {
				in := st.vals[ins.Args[0]]
				if in.Layout != wantIn {
					return nil, fmt.Errorf("exec: layer %q: got %s input, primitive %s wants %s",
						l.Name, in.Layout, prim.Name, wantIn)
				}
				if in.C != sc.C || in.H != sc.H || in.W != sc.W {
					return nil, fmt.Errorf("exec: layer %q: input %s does not match scenario %s",
						l.Name, in, sc)
				}
				out := e.out(st, ins)
				var res *tensor.Batch
				if hasRes {
					res = st.vals[ins.Args[1]]
					if res.Layout != out.Layout || res.N != st.n || len(res.Data) < len(out.Data) {
						return nil, fmt.Errorf("exec: layer %q: residual batch mismatches output", l.Name)
					}
				}
				if epi == gemm.EpiNone && len(ins.CvtIn) == 0 {
					conv.RunBatchInto(prim, out, in, k, sc, threads)
				} else {
					conv.RunBatchFusedInto(prim, out, in, k, sc, threads, epi, res)
				}
				return out, nil
			}

		case program.OpConvert:
			// The whole legalization chain is a layout permutation, so it
			// fuses into one specialized per-image ConvertInto striding
			// over the batch, with no chain temporaries. (The plan priced
			// the chain hop by hop, so its edge cost is an upper bound on
			// this fused execution.)
			e.kerns[i] = func(st *batchState, threads int) (*tensor.Batch, error) {
				out := e.out(st, ins)
				program.ConvertBatchInto(out, st.vals[ins.Args[0]], threads)
				return out, nil
			}

		case program.OpReLU:
			e.kerns[i] = func(st *batchState, threads int) (*tensor.Batch, error) {
				out := e.out(st, ins)
				program.ReLUBatchInto(out, st.vals[ins.Args[0]], threads)
				return out, nil
			}

		case program.OpDropout:
			if ins.Alias {
				e.kerns[i] = func(st *batchState, _ int) (*tensor.Batch, error) {
					return st.vals[ins.Args[0]], nil
				}
				break
			}
			e.kerns[i] = func(st *batchState, _ int) (*tensor.Batch, error) {
				out := e.out(st, ins)
				program.CopyBatchInto(out, st.vals[ins.Args[0]])
				return out, nil
			}

		case program.OpLRN:
			e.kerns[i] = func(st *batchState, threads int) (*tensor.Batch, error) {
				out := e.out(st, ins)
				program.LRNBatchInto(out, st.vals[ins.Args[0]], threads)
				return out, nil
			}

		case program.OpMaxPool, program.OpAvgPool:
			isMax := ins.Op == program.OpMaxPool
			e.kerns[i] = func(st *batchState, threads int) (*tensor.Batch, error) {
				out := e.out(st, ins)
				program.PoolBatchInto(out, st.vals[ins.Args[0]], l, isMax, threads)
				return out, nil
			}

		case program.OpSoftmax:
			e.kerns[i] = func(st *batchState, threads int) (*tensor.Batch, error) {
				out := e.out(st, ins)
				program.SoftmaxBatchInto(out, st.vals[ins.Args[0]], threads)
				return out, nil
			}

		case program.OpFC:
			mat := e.w.FC[l.ID]
			if mat == nil {
				return fmt.Errorf("exec: no weights for fc layer %q", l.Name)
			}
			if ins.Epi != gemm.EpiNone && ins.Epi != gemm.EpiReLU {
				return fmt.Errorf("exec: fc layer %q carries epilogue %s (relu only)", l.Name, ins.Epi)
			}
			outN := l.FCOut
			fcEpi := ins.Epi
			e.kerns[i] = func(st *batchState, threads int) (*tensor.Batch, error) {
				out := e.out(st, ins)
				program.FCBatchEpiInto(out, st.vals[ins.Args[0]], mat, outN, threads, fcEpi)
				return out, nil
			}

		case program.OpConcat, program.OpAdd:
			isConcat := ins.Op == program.OpConcat
			e.kerns[i] = func(st *batchState, threads int) (*tensor.Batch, error) {
				ins2 := make([]*tensor.Batch, len(ins.Args))
				for k, a := range ins.Args {
					ins2[k] = st.vals[a]
				}
				out := e.out(st, ins)
				if isConcat {
					program.ConcatBatchInto(out, ins2, threads)
				} else {
					program.AddBatchInto(out, ins2, threads)
				}
				return out, nil
			}

		default:
			return fmt.Errorf("exec: unsupported instruction %s", ins.Op)
		}
	}
	return nil
}

// Run executes the program on a single image. It is equivalent to
// RunBatch with a batch of one.
func (e *Engine) Run(input *tensor.Tensor) (*tensor.Tensor, error) {
	outs, err := e.RunBatch([]*tensor.Tensor{input})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// RunBatch executes the program on an N-image minibatch: one batched
// frame per call, every instruction processing the whole minibatch in
// one kernel invocation. Calls with more images than the engine's
// planned maxBatch are split into maxBatch-sized chunks executed in
// order. The returned slice holds each image's output in input order.
// Outputs honor Run's no-alias contract: they never share storage with
// the caller's inputs, and they are never recycled — the compiled
// output instruction is always a fresh allocation.
func (e *Engine) RunBatch(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("exec: empty batch")
	}
	// The first instruction is the topologically first layer: the input.
	il := e.prog.Instrs[0].Layer
	for _, in := range inputs {
		if in.C != il.OutC || in.H != il.OutH || in.W != il.OutW {
			return nil, fmt.Errorf("exec: input %s does not match network input %d×%d×%d",
				in, il.OutC, il.OutH, il.OutW)
		}
	}
	outs := make([]*tensor.Tensor, 0, len(inputs))
	for len(inputs) > 0 {
		n := len(inputs)
		if n > e.maxBatch {
			n = e.maxBatch
		}
		chunk, err := e.runChunk(inputs[:n])
		if err != nil {
			return nil, err
		}
		outs = append(outs, chunk...)
		inputs = inputs[n:]
	}
	return outs, nil
}

// runChunk executes one ≤ maxBatch minibatch against a freshly checked
// out slot frame.
func (e *Engine) runChunk(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	n := len(e.prog.Instrs)
	st := &batchState{
		n:      len(inputs),
		inputs: inputs,
		vals:   make([]*tensor.Batch, n),
		bufs:   make([][]float32, len(e.prog.SlotCap)),
	}
	// Slot buffers are checked out at the *planned* capacity — per-image
	// slot size × maxBatch — regardless of how many images this call
	// carries. Keeping the checkout size keyed to the batch bucket means
	// a server alternating between batch sizes recycles the same
	// buffers instead of churning the allocator (smaller calls simply
	// use a prefix of each slot).
	for s, cap := range e.prog.SlotCap {
		st.bufs[s] = e.arena.get(cap * e.maxBatch)
	}
	defer func() {
		for _, buf := range st.bufs {
			e.arena.put(buf)
		}
	}()

	// Observability, both opt-in and off the hot path when idle: a
	// sampled chunk (1-in-K, decided per chunk so every sampled dispatch
	// yields a complete per-layer breakdown) times each instruction and
	// the chunk's engine wall clock; an active runtime/trace session
	// wraps the chunk in a trace task and every instruction in a region,
	// so `go tool trace` shows the DAG schedule across the worker pool.
	if p := e.prof; p != nil && p.SampleChunk() {
		st.prof = p
	}
	if trace.IsEnabled() {
		ctx, task := trace.NewTask(context.Background(), "exec.RunBatch")
		st.ctx = ctx
		defer task.End()
	}
	var t0 time.Time
	if st.prof != nil {
		t0 = time.Now()
	}

	var err error
	if e.workers <= 1 {
		err = e.runSequential(st)
	} else {
		err = e.runParallel(st)
	}
	if st.prof != nil {
		st.prof.ObserveChunk(st.n, int64(time.Since(t0)))
	}
	if err != nil {
		return nil, err
	}
	outBatch := st.vals[e.prog.Output]
	outs := make([]*tensor.Tensor, st.n)
	for i := range outs {
		outs[i] = outBatch.Image(i)
	}
	return outs, nil
}

// runSequential executes the instruction stream in topological order on
// the calling goroutine — the single-worker fast path (no channels, no
// atomics).
func (e *Engine) runSequential(st *batchState) error {
	for i := range e.prog.Instrs {
		out, err := e.runInstr(st, i, 1)
		if err != nil {
			return err
		}
		st.vals[i] = out
	}
	return nil
}

// runInstr executes one instruction's bound kernel, timing it when this
// chunk is sampled and wrapping it in a trace region when a trace
// session is active. Disabled observability costs two nil checks and
// nothing else — no allocation, no atomics (the hotpathalloc analyzer
// enforces the former; BenchmarkEngineObservationOverhead pins both).
//
//dnn:hotpath
func (e *Engine) runInstr(st *batchState, t, threads int) (*tensor.Batch, error) {
	var reg *trace.Region
	if st.ctx != nil {
		reg = trace.StartRegion(st.ctx, e.prog.Instrs[t].Name)
	}
	var start time.Time
	if st.prof != nil {
		start = time.Now()
	}
	out, err := e.kerns[t](st, threads)
	if st.prof != nil {
		st.prof.Observe(t, int64(time.Since(start)))
	}
	if reg != nil {
		reg.End()
	}
	return out, err
}

// runParallel executes the stream with the dependency-counting DAG
// scheduler: every instruction whose producers have completed is a
// ready task; independent branches dispatch onto the worker pool
// concurrently, and a task running alone inherits the whole thread
// budget for its intra-kernel (image/row/point) split.
func (e *Engine) runParallel(st *batchState) error {
	n := len(e.prog.Instrs)
	st.deps = make([]int32, n)
	st.tasks = make(chan int, n)
	st.stop = make(chan struct{})
	st.total = int64(n)
	// Bound once here so the completion check in runTask passes a
	// prebuilt func to sync.Once instead of allocating a closure per
	// task.
	st.closeStop = func() { close(st.stop) }
	for i := range e.prog.Instrs {
		st.deps[i] = int32(e.prog.Instrs[i].NumDeps)
		if e.prog.Instrs[i].NumDeps == 0 {
			st.tasks <- i
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-st.stop:
					return
				case t := <-st.tasks:
					e.runTask(st, t)
				}
			}
		}()
	}
	wg.Wait()
	return st.loadErr()
}

// batchState is the per-chunk execution state: the minibatch's value
// table, the slot buffers of the static memory plan, and (under the
// parallel scheduler) the remaining dependency counts and task queue.
type batchState struct {
	n      int
	inputs []*tensor.Tensor
	vals   []*tensor.Batch
	bufs   [][]float32 // per planned slot, arena-owned

	// prof is non-nil iff this chunk was sampled for per-instruction
	// profiling; ctx is non-nil iff a runtime/trace session is active
	// (the chunk's trace task context, parent of every instruction
	// region).
	prof *obs.Profile
	ctx  context.Context

	deps  []int32
	tasks chan int      // buffered to the instruction count: sends never block
	stop  chan struct{} // closed on completion or first error

	total     int64
	completed int64
	running   int32

	errOnce sync.Once
	err     atomic.Value // error
	done    sync.Once
	// closeStop closes stop; hoisted into a field so the per-task
	// completion path stays allocation-free.
	closeStop func()
}

func (st *batchState) fail(err error) {
	st.errOnce.Do(func() { st.err.Store(err) })
	st.done.Do(st.closeStop)
}

func (st *batchState) loadErr() error {
	if v := st.err.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// runTask executes one batched instruction and unlocks successors. The
// heavy lifting — conversions, destination policy, kernel dispatch —
// was all resolved at compile time; nothing here consults a map or
// switches on a type.
//
//dnn:hotpath
func (e *Engine) runTask(st *batchState, t int) {
	atomic.AddInt32(&st.running, 1)
	out, err := e.runInstr(st, t, e.taskThreads(st))
	atomic.AddInt32(&st.running, -1)
	if err != nil {
		st.fail(err)
		return
	}
	st.vals[t] = out

	for _, s := range e.prog.Instrs[t].Succs {
		if atomic.AddInt32(&st.deps[s], -1) == 0 {
			st.tasks <- s
		}
	}
	if atomic.AddInt64(&st.completed, 1) == st.total {
		st.done.Do(st.closeStop)
	}
}

// taskThreads decides the intra-kernel thread budget for one task:
// normally 1 (the pool itself is the parallelism, across DAG
// branches), but a task running alone with an empty queue inherits the
// whole budget — its batched kernel then splits images, GEMM rows or
// Winograd tile blocks across the pool, so chain segments of the DAG do not
// serialize the minibatch onto a single worker.
//
//dnn:hotpath
func (e *Engine) taskThreads(st *batchState) int {
	if e.workers > 1 && atomic.LoadInt32(&st.running) == 1 && len(st.tasks) == 0 {
		return e.workers
	}
	return 1
}
