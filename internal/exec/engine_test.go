package exec

import (
	"fmt"
	"os"
	"testing"

	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn"
	"pbqpdnn/internal/dnn/models"
	"pbqpdnn/internal/gemm"
	"pbqpdnn/internal/program"
	"pbqpdnn/internal/selector"
	"pbqpdnn/internal/tensor"
)

// relTol is the acceptance tolerance for the engine-versus-Reference
// equivalence harness: the engine may pick up different-but-valid
// float summation orders through primitives and layout chains.
const relTol = 1e-4

func newInput(net *dnn.Graph, seed int64) *tensor.Tensor {
	l := net.Layers[0]
	in := tensor.New(tensor.CHW, l.OutC, l.OutH, l.OutW)
	in.FillRandom(seed)
	return in
}

// --- equivalence harness: Engine vs Reference ---

// testEngineAgainstReference runs the full chain on one network: a
// PBQP-optimized plan executed by the engine must compute the same
// function as the textbook reference executor — both from a batch-1
// engine (calls chunked image by image) and from an engine whose memory
// plan is sized to the whole minibatch.
func testEngineAgainstReference(t *testing.T, net *dnn.Graph, threads int, inputs []*tensor.Tensor) {
	t.Helper()
	w := NewWeights(net)
	plan, err := selector.Select(net, selector.Options{
		Prof: cost.NewModel(cost.IntelHaswell), Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	// Oracle once per distinct input (inputs may repeat to exercise the
	// batch dimension without paying for extra reference runs).
	want := map[*tensor.Tensor]*tensor.Tensor{}
	for _, in := range inputs {
		if _, ok := want[in]; !ok {
			ref, err := Reference(net, in, w)
			if err != nil {
				t.Fatal(err)
			}
			want[in] = ref
		}
	}
	for _, maxBatch := range []int{1, len(inputs)} {
		eng, err := NewEngineBatch(plan, w, maxBatch)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := eng.RunBatch(inputs)
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range inputs {
			if !tensor.WithinRel(outs[i], want[in], relTol) {
				t.Errorf("%s (threads=%d maxBatch=%d): batch image %d diverges from reference by %g",
					net.Name, threads, maxBatch, i, tensor.MaxRelDiff(outs[i], want[in]))
			}
		}
	}
}

// TestEngineMatchesReferenceTiny runs the harness at testable sizes on
// the inception-style DAG and the strided chain, with distinct images
// per batch slot so cross-image buffer mixing cannot cancel out.
func TestEngineMatchesReferenceTiny(t *testing.T) {
	for _, net := range []*dnn.Graph{tinyChain(), tinyDAG()} {
		for _, threads := range []int{1, 2, 4} {
			inputs := []*tensor.Tensor{
				newInput(net, 1), newInput(net, 2), newInput(net, 3), newInput(net, 4),
			}
			testEngineAgainstReference(t, net, threads, inputs)
		}
	}
}

// TestEngineConcatDeclaredOrder: concat argument order is channel
// order — a graph whose concat lists a higher-id branch first must
// execute in that declared order, not in layer-id order (regression:
// the IR compiler once sorted predecessors by id, silently permuting
// channels).
func TestEngineConcatDeclaredOrder(t *testing.T) {
	b, x := dnn.NewBuilder("swapped-cat", 3, 12, 12)
	a := b.Conv(x, "branch-a", 4, 3, 1, 1)
	c := b.Conv(x, "branch-b", 6, 3, 1, 1)
	x = b.Concat("cat", c, a) // declared order: higher-id branch first
	b.Softmax(x, "prob")
	net := b.Graph()
	for _, threads := range []int{1, 4} {
		testEngineAgainstReference(t, net, threads, []*tensor.Tensor{newInput(net, 31)})
	}
}

// vggStyle is a scaled-down VGG configuration: homogeneous 3×3
// convolution blocks with 2×2/2 pools and an FC tail.
func vggStyle() *dnn.Graph {
	b, x := dnn.NewBuilder("vgg-style", 3, 32, 32)
	maps := []int{8, 16}
	for blk, m := range maps {
		for i := 0; i < 2; i++ {
			x = b.Conv(x, name2("conv", blk, i), m, 3, 1, 1)
			x = b.ReLU(x, name2("relu", blk, i))
		}
		x = b.MaxPool(x, name2("pool", blk, 0), 2, 2, 0)
	}
	x = b.FC(x, "fc1", 32)
	x = b.ReLU(x, "fc1/relu")
	x = b.Dropout(x, "fc1/drop")
	x = b.FC(x, "fc2", 10)
	b.Softmax(x, "prob")
	return b.Graph()
}

// resnetStyle is a scaled-down residual network: basic blocks with
// identity and strided-projection shortcuts around elementwise adds.
func resnetStyle() *dnn.Graph {
	b, x := dnn.NewBuilder("resnet-style", 3, 24, 24)
	x = b.Conv(x, "stem", 8, 3, 1, 1)
	x = b.ReLU(x, "stem/relu")
	block := func(x int, name string, m, stride int) int {
		short := x
		if c, _, _ := b.Shape(x); stride != 1 || c != m {
			short = b.Conv(x, name+"/proj", m, 1, stride, 0)
		}
		y := b.Conv(x, name+"/conv1", m, 3, stride, 1)
		y = b.ReLU(y, name+"/relu1")
		y = b.Conv(y, name+"/conv2", m, 3, 1, 1)
		y = b.Add(name+"/add", y, short)
		return b.ReLU(y, name+"/relu2")
	}
	x = block(x, "res2a", 8, 1)
	x = block(x, "res2b", 8, 1)
	x = block(x, "res3a", 16, 2)
	x = block(x, "res3b", 16, 1)
	_, h, _ := b.Shape(x)
	x = b.AvgPool(x, "gap", h, 1, 0)
	x = b.FC(x, "fc", 10)
	b.Softmax(x, "prob")
	return b.Graph()
}

func name2(base string, blk, i int) string {
	return base + string(rune('a'+blk)) + string(rune('1'+i))
}

// TestEngineMatchesReferenceVGGAndResNetStyle covers the VGG (deep
// homogeneous chain) and ResNet (residual add junction) architecture
// shapes at sizes cheap enough to run everywhere, including -race.
func TestEngineMatchesReferenceVGGAndResNetStyle(t *testing.T) {
	for _, net := range []*dnn.Graph{vggStyle(), resnetStyle()} {
		for _, threads := range []int{1, 4} {
			inputs := []*tensor.Tensor{
				newInput(net, 10), newInput(net, 11), newInput(net, 12),
			}
			testEngineAgainstReference(t, net, threads, inputs)
		}
	}
}

// TestEngineMatchesReferenceFullModels is the acceptance gate: the
// compiled, batched, branch-parallel engine must match Reference within
// 1e-4 relative tolerance on the real full-size AlexNet, GoogLeNet and
// ResNet-18 at batch sizes 1, 3 and 8 — under the race detector too,
// where the parallel safety of the static slot plan is actually
// exercised. Each batch size selects its own per-bucket plan
// (selector.SelectBatch: batch-amortized node costs genuinely change
// the picked primitives) and compiles its own program (the memory plan
// is N-dependent: every slot scales by N), so this covers every plan a batch-aware serving registry
// would execute. (Full-size VGG is opt-in via DNNEXEC_FULL=1 — its
// reference execution alone runs minutes.) Batch slots repeat one
// image so the whole-model oracle runs once; distinct-image batch
// purity is covered by the tiny/scaled harnesses.
func TestEngineMatchesReferenceFullModels(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size model execution in -short mode")
	}
	names := []string{"alexnet", "googlenet", "resnet-18"}
	if os.Getenv("DNNEXEC_FULL") != "" {
		names = append(names, "vgg-b", "vgg-e")
	}
	for _, name := range names {
		g, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWeights(g)
		in := newInput(g, 42)
		ref, err := Reference(g, in, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{1, 3, 8} {
			plan, err := selector.SelectBatch(g, batch, selector.Options{
				Prof: cost.NewModel(cost.IntelHaswell), Threads: 4})
			if err != nil {
				t.Fatal(err)
			}
			if plan.Batch != batch {
				t.Fatalf("%s: bucket plan carries batch %d, want %d", name, plan.Batch, batch)
			}
			eng, err := NewEngineBatch(plan, w, batch)
			if err != nil {
				t.Fatal(err)
			}
			inputs := make([]*tensor.Tensor, batch)
			for i := range inputs {
				inputs[i] = in
			}
			outs, err := eng.RunBatch(inputs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range outs {
				if !tensor.WithinRel(outs[i], ref, relTol) {
					t.Errorf("%s batch=%d: image %d diverges from reference by %g",
						name, batch, i, tensor.MaxRelDiff(outs[i], ref))
				}
			}
		}
	}
}

// TestEngineDeterministicSingleThread: at Threads=1 the engine must be
// bitwise deterministic run to run, arena recycling included — at
// batch 1 and batched (the batched kernels accumulate in a fixed order
// regardless of batch position). The pin
// is scoped to one GEMM microkernel variant at a time: the AVX2 and
// pure-Go packed microkernels associate partial products differently,
// so runs are bitwise repeatable only while dispatch stays on one
// variant — which is the deployment reality, since the variant is
// fixed at process start (CPUID + purego tag + DNN_NOSIMD). Outputs
// are deliberately NOT compared across the subtests.
func TestEngineDeterministicSingleThread(t *testing.T) {
	for _, variant := range gemm.PackedVariants() {
		t.Run("variant="+variant, func(t *testing.T) {
			prev := gemm.SetSIMD(variant == "avx2")
			defer gemm.SetSIMD(prev)
			testEngineDeterministicSingleThread(t)
		})
	}
}

func testEngineDeterministicSingleThread(t *testing.T) {
	for _, net := range []*dnn.Graph{tinyDAG(), resnetStyle()} {
		w := NewWeights(net)
		plan, err := selector.Select(net, selector.Options{
			Prof: cost.NewModel(cost.IntelHaswell), Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		inputs := []*tensor.Tensor{newInput(net, 7), newInput(net, 8)}
		for _, maxBatch := range []int{1, len(inputs)} {
			eng, err := NewEngineBatch(plan, w, maxBatch)
			if err != nil {
				t.Fatal(err)
			}
			first, err := eng.RunBatch(inputs)
			if err != nil {
				t.Fatal(err)
			}
			second, err := eng.RunBatch(inputs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range first {
				for j := range first[i].Data {
					if first[i].Data[j] != second[i].Data[j] {
						t.Fatalf("%s (maxBatch=%d): image %d element %d differs across runs: %v vs %v",
							net.Name, maxBatch, i, j, first[i].Data[j], second[i].Data[j])
					}
				}
			}
		}
	}
}

// TestEngineChunksOversizedBatch: a RunBatch call larger than the
// engine's planned batch splits into maxBatch-sized chunks and still
// returns per-image outputs in input order.
func TestEngineChunksOversizedBatch(t *testing.T) {
	net := tinyDAG()
	w := NewWeights(net)
	plan, err := selector.Select(net, selector.Options{
		Prof: cost.NewModel(cost.IntelHaswell), Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineBatch(plan, w, 2)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]*tensor.Tensor, 5)
	for i := range inputs {
		inputs[i] = newInput(net, int64(60+i))
	}
	outs, err := eng.RunBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(inputs) {
		t.Fatalf("%d outputs for %d inputs", len(outs), len(inputs))
	}
	for i, in := range inputs {
		want, err := Run(plan, in, w)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.WithinRel(outs[i], want, relTol) {
			t.Errorf("chunked image %d diverges by %g", i, tensor.MaxRelDiff(outs[i], want))
		}
	}
}

// TestEngineMatchesSequentialRun: the engine and the sequential oracle
// executor agree on the same plan (tighter than the Reference bound,
// since both execute identical primitives).
func TestEngineMatchesSequentialRun(t *testing.T) {
	net := tinyDAG()
	w := NewWeights(net)
	for _, m := range cost.Machines() {
		plan, err := selector.Select(net, selector.Options{Prof: cost.NewModel(m), Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngineBatch(plan, w, 1)
		if err != nil {
			t.Fatal(err)
		}
		in := newInput(net, 21)
		want, err := Run(plan, in, w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.WithinRel(got, want, 1e-6) {
			t.Errorf("%s: engine diverges from sequential Run by %g", m.Name, tensor.MaxRelDiff(got, want))
		}
	}
}

// TestEngineConcurrentRunBatch pins the concurrency contract the
// serving layer relies on: one shared Engine must produce correct,
// uncorrupted results when RunBatch (and Run) are called from many
// goroutines at once — sharing the compiled program, bound kernels and
// the internally synchronized arena. Staggered batch sizes plus a
// pre-warmed arena force cross-call buffer recycling, and per-image
// expected outputs catch any cross-call frame mixing; run under -race
// this is the regression test for the audit in the Engine doc comment.
func TestEngineConcurrentRunBatch(t *testing.T) {
	net := tinyDAG()
	w := NewWeights(net)
	plan, err := selector.Select(net, selector.Options{
		Prof: cost.NewModel(cost.IntelHaswell), Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A batched engine shared across goroutines: concurrent dispatches
	// of varying sizes all land on the same compiled batch-3 program.
	eng, err := NewEngineBatch(plan, w, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Distinct inputs with sequentially computed expected outputs.
	const nInputs = 4
	inputs := make([]*tensor.Tensor, nInputs)
	want := make([]*tensor.Tensor, nInputs)
	for i := range inputs {
		inputs[i] = newInput(net, int64(50+i))
		want[i], err = Run(plan, inputs[i], w)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Run(inputs[0]); err != nil { // warm the arena
		t.Fatal(err)
	}

	const (
		goroutines = 8
		iters      = 4
	)
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for it := 0; it < iters; it++ {
				// Vary batch size and composition per goroutine and
				// iteration so concurrent calls check out different
				// frame shapes from the shared arena.
				batch := make([]*tensor.Tensor, 1+(g+it)%3)
				idx := make([]int, len(batch))
				for k := range batch {
					idx[k] = (g + it + k) % nInputs
					batch[k] = inputs[idx[k]]
				}
				outs, err := eng.RunBatch(batch)
				if err != nil {
					errc <- err
					return
				}
				for k := range outs {
					// relTol, not 1e-6: the batched engine's restructured
					// kernels (float32 Winograd pointwise GEMM) are held to
					// the library-wide equivalence bar, not bitwise parity
					// with the sequential executor.
					if !tensor.WithinRel(outs[k], want[idx[k]], relTol) {
						errc <- fmt.Errorf("goroutine %d iter %d: image %d diverges by %g",
							g, it, k, tensor.MaxRelDiff(outs[k], want[idx[k]]))
						return
					}
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
}

// --- no-alias / no-mutation regression tests ---

// TestRunNeverAliasesCallerInput pins the copy-on-identity contract:
// mutating a returned output must never corrupt the caller's input,
// even for networks whose output is reached through identity layers
// (dropout) with no layout conversion in between.
func TestRunNeverAliasesCallerInput(t *testing.T) {
	b, x := dnn.NewBuilder("identity-net", 2, 4, 4)
	x = b.Dropout(x, "drop1")
	b.Dropout(x, "drop2")
	net := b.Graph()
	w := NewWeights(net)
	plan, err := selector.Baseline(net, selector.Options{Prof: zeroProfiler{}})
	if err != nil {
		t.Fatal(err)
	}

	runners := map[string]func(*tensor.Tensor) (*tensor.Tensor, error){
		"sequential": func(in *tensor.Tensor) (*tensor.Tensor, error) { return Run(plan, in, w) },
		"engine": func(in *tensor.Tensor) (*tensor.Tensor, error) {
			eng, err := NewEngineBatch(plan, w, 1)
			if err != nil {
				return nil, err
			}
			return eng.Run(in)
		},
	}
	for name, run := range runners {
		in := tensor.New(tensor.CHW, 2, 4, 4)
		in.FillRandom(3)
		pristine := in.Clone()
		out, err := run(in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range out.Data {
			out.Data[i] = -12345
		}
		for i := range in.Data {
			if in.Data[i] != pristine.Data[i] {
				t.Fatalf("%s: mutating the output corrupted the caller's input at %d", name, i)
			}
		}
		// The other direction: mutating the input after Run must not
		// change an already-returned output.
		out2, err := run(in)
		if err != nil {
			t.Fatal(err)
		}
		want := out2.Clone()
		for i := range in.Data {
			in.Data[i] = 999
		}
		for i := range out2.Data {
			if out2.Data[i] != want.Data[i] {
				t.Fatalf("%s: mutating the input corrupted a returned output at %d", name, i)
			}
		}
	}
}

// --- scheduler/arena plumbing ---

func TestEngineRejectsBadBatch(t *testing.T) {
	net := tinyChain()
	w := NewWeights(net)
	plan, err := selector.Select(net, selector.Options{Prof: cost.NewModel(cost.IntelHaswell)})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineBatch(plan, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunBatch(nil); err == nil {
		t.Error("empty batch should fail")
	}
	bad := tensor.New(tensor.CHW, 3, 16, 16) // wrong channel count
	if _, err := eng.RunBatch([]*tensor.Tensor{bad}); err == nil {
		t.Error("mismatched input should fail")
	}
	// One bad input anywhere in the batch fails the whole batch.
	good := newInput(net, 1)
	if _, err := eng.RunBatch([]*tensor.Tensor{good, bad}); err == nil {
		t.Error("partially mismatched batch should fail")
	}
}

func TestNewEngineRejectsCorruptPlan(t *testing.T) {
	net := tinyChain()
	w := NewWeights(net)
	plan, err := selector.Select(net, selector.Options{Prof: cost.NewModel(cost.IntelHaswell)})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a conv layer's recorded layout so primitive and plan
	// disagree.
	id := net.ConvLayers()[0]
	saved := plan.Layouts[id]
	plan.Layouts[id] = (saved + 1) % 8
	if _, err := NewEngineBatch(plan, w, 1); err == nil {
		t.Error("NewEngineBatch should reject a plan whose layouts disagree with its primitives")
	}
	plan.Layouts[id] = saved
	if _, err := NewEngineBatch(plan, w, 1); err != nil {
		t.Errorf("restored plan should pass: %v", err)
	}
}

func TestArenaRecyclesAcrossRuns(t *testing.T) {
	net := tinyDAG()
	w := NewWeights(net)
	plan, err := selector.Select(net, selector.Options{Prof: cost.NewModel(cost.IntelHaswell), Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineBatch(plan, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := newInput(net, 5)
	if _, err := eng.Run(in); err != nil {
		t.Fatal(err)
	}
	gets1, _ := eng.arena.stats()
	if gets1 == 0 {
		t.Fatal("engine did not allocate through the arena")
	}
	if _, err := eng.Run(in); err != nil {
		t.Fatal(err)
	}
	gets2, hits2 := eng.arena.stats()
	if hits2 == 0 {
		t.Errorf("second run recycled nothing (gets %d → %d, hits %d)", gets1, gets2, hits2)
	}
}

// TestArenaStableAcrossAlternatingBatchSizes pins the serving-path
// property: an engine's slot checkout is keyed by (slot capacity ×
// planned batch), not by the call's actual image count, so a server
// alternating between batch sizes recycles the same buffers instead of
// re-allocating per size. After the first (cold) call, every further
// RunBatch — whatever its size — must be all arena hits.
func TestArenaStableAcrossAlternatingBatchSizes(t *testing.T) {
	net := tinyDAG()
	w := NewWeights(net)
	plan, err := selector.Select(net, selector.Options{
		Prof: cost.NewModel(cost.IntelHaswell), Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineBatch(plan, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]*tensor.Tensor, 4)
	for i := range inputs {
		inputs[i] = newInput(net, int64(80+i))
	}
	if _, err := eng.RunBatch(inputs[:1]); err != nil { // cold call
		t.Fatal(err)
	}
	gets0, hits0 := eng.arena.stats()
	for _, n := range []int{4, 1, 3, 2, 4, 1} {
		if _, err := eng.RunBatch(inputs[:n]); err != nil {
			t.Fatal(err)
		}
	}
	gets1, hits1 := eng.arena.stats()
	if got, want := hits1-hits0, gets1-gets0; got != want {
		t.Errorf("alternating batch sizes recycled %d of %d checkouts; want all (realloc churn)", got, want)
	}
}

// TestArenaRecyclesExactSizes: checkout is keyed by exact element
// count and recycles released buffers verbatim (the arena does not
// zero — blocked-layout slot tenants clear their view on entry).
func TestArenaRecyclesExactSizes(t *testing.T) {
	a := newArena()
	buf := a.get(16)
	if len(buf) != 16 {
		t.Fatalf("got %d elements, want 16", len(buf))
	}
	a.put(buf)
	if got := a.get(24); len(got) != 24 {
		t.Fatalf("got %d elements, want 24", len(got))
	}
	got := a.get(16)
	if &got[0] != &buf[0] {
		t.Error("same-size checkout did not recycle the released buffer")
	}
	if gets, hits := a.stats(); gets != 3 || hits != 1 {
		t.Errorf("stats = %d gets, %d hits; want 3, 1", gets, hits)
	}
}

// TestArenaBoundsFreeLists: releasing more buffers than the per-size
// cap must drop the excess (a long-lived engine must not hoard
// released buffers without bound).
func TestArenaBoundsFreeLists(t *testing.T) {
	a := newArena()
	const n = defaultArenaDepth * 3
	for i := 0; i < n; i++ {
		a.put(make([]float32, 8))
	}
	recycled := 0
	for i := 0; i < n; i++ {
		a.get(8)
	}
	_, hits := a.stats()
	recycled = int(hits)
	if recycled > defaultArenaDepth {
		t.Errorf("arena recycled %d buffers of one size, cap is %d", recycled, defaultArenaDepth)
	}
	if recycled == 0 {
		t.Error("arena recycled nothing")
	}
}

// --- fast-path operators vs oracle operators, across layouts ---

func randomTensor(l tensor.Layout, c, h, w int, seed int64) *tensor.Tensor {
	t := tensor.New(l, c, h, w)
	t.FillRandom(seed)
	return t
}

func assertOpMatch(t *testing.T, op string, l tensor.Layout, got, want *tensor.Tensor) {
	t.Helper()
	if !tensor.WithinRel(got, want, 1e-6) {
		t.Errorf("%s in %s diverges from oracle by %g", op, l, tensor.MaxRelDiff(got, want))
	}
}

func TestFastPathsMatchOracleOperators(t *testing.T) {
	const C, H, W = 6, 9, 7
	for _, l := range tensor.Layouts() {
		in := randomTensor(l, C, H, W, int64(100+l))

		dst := tensor.New(l, C, H, W)
		program.ReLUInto(dst, in)
		assertOpMatch(t, "relu", l, dst, relu(in))

		dst = tensor.New(l, C, H, W)
		program.LRNInto(dst, in)
		assertOpMatch(t, "lrn", l, dst, lrn(in))

		dst = tensor.New(l, C, H, W)
		program.SoftmaxInto(dst, in)
		assertOpMatch(t, "softmax", l, dst, softmax(in))

		for _, pl := range []*dnn.Layer{
			{PoolK: 2, PoolStride: 2, PoolPad: 0},
			{PoolK: 3, PoolStride: 1, PoolPad: 1},
			{PoolK: 3, PoolStride: 2, PoolPad: 1},
		} {
			pl.OutC, pl.OutH, pl.OutW = C, poolDim(H, pl), poolDim(W, pl)
			for _, isMax := range []bool{true, false} {
				dst = tensor.New(l, pl.OutC, pl.OutH, pl.OutW)
				program.PoolInto(dst, in, pl, isMax)
				assertOpMatch(t, "pool", l, dst, pool(in, pl, isMax))
			}
		}

		ins := []*tensor.Tensor{
			randomTensor(l, 3, H, W, 201), randomTensor(l, 2, H, W, 202), randomTensor(l, 4, H, W, 203),
		}
		dst = tensor.New(l, 9, H, W)
		program.ConcatInto(dst, ins)
		assertOpMatch(t, "concat", l, dst, concat(ins, l))

		addIns := []*tensor.Tensor{in, randomTensor(l, C, H, W, 204)}
		dst = tensor.New(l, C, H, W)
		program.AddInto(dst, addIns)
		assertOpMatch(t, "add", l, dst, add(addIns, l))

		const outN = 5
		mat := make([]float32, outN*C*H*W)
		fillRandom(mat, 77)
		dst = tensor.New(l, outN, 1, 1)
		program.FCInto(dst, in, mat, outN)
		assertOpMatch(t, "fc", l, dst, fc(in, mat, outN))
	}
}

// TestInPlaceKernelsTolerateAliasing pins the in-place contract the
// memory planner relies on: ReLU, dropout-copy, two-input add and
// softmax must produce identical results when dst aliases their (first)
// input.
func TestInPlaceKernelsTolerateAliasing(t *testing.T) {
	const C, H, W = 6, 9, 7
	for _, l := range tensor.Layouts() {
		in := randomTensor(l, C, H, W, 300+int64(l))

		dst := in.Clone()
		program.ReLUInto(dst, dst)
		assertOpMatch(t, "relu-inplace", l, dst, relu(in))

		dst = in.Clone()
		program.CopyInto(dst, dst)
		assertOpMatch(t, "copy-inplace", l, dst, in)

		other := randomTensor(l, C, H, W, 305)
		dst = in.Clone()
		program.AddInto(dst, []*tensor.Tensor{dst, other})
		assertOpMatch(t, "add-inplace", l, dst, add([]*tensor.Tensor{in, other}, l))

		dst = in.Clone()
		program.SoftmaxInto(dst, dst)
		assertOpMatch(t, "softmax-inplace", l, dst, softmax(in))
	}
}

func poolDim(in int, l *dnn.Layer) int {
	return (in+2*l.PoolPad-l.PoolK)/l.PoolStride + 1
}

// TestFastPathsMixedLayoutInputs: concat and add must fall back to
// logical indexing when inputs arrive in layouts that differ from the
// destination.
func TestFastPathsMixedLayoutInputs(t *testing.T) {
	a := randomTensor(tensor.CHW, 3, 5, 4, 301)
	bb := tensor.Convert(randomTensor(tensor.CHW, 2, 5, 4, 302), tensor.HWC)
	dst := tensor.New(tensor.CHW, 5, 5, 4)
	program.ConcatInto(dst, []*tensor.Tensor{a, bb})
	want := concat([]*tensor.Tensor{a, bb}, tensor.CHW)
	assertOpMatch(t, "concat-mixed", tensor.CHW, dst, want)

	c := tensor.Convert(randomTensor(tensor.CHW, 3, 5, 4, 303), tensor.WHC)
	dst = tensor.New(tensor.CHW, 3, 5, 4)
	program.AddInto(dst, []*tensor.Tensor{a, c})
	wantAdd := add([]*tensor.Tensor{a, c}, tensor.CHW)
	assertOpMatch(t, "add-mixed", tensor.CHW, dst, wantAdd)
}

// TestResNet18Selection: the new residual workload must select and
// legalize end to end with a provably optimal PBQP solution.
func TestResNet18Selection(t *testing.T) {
	g, err := models.Build("resnet-18")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := selector.Select(g, selector.Options{Prof: cost.NewModel(cost.IntelHaswell), Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Optimal {
		t.Error("solver failed to prove optimality on resnet-18")
	}
	if err := plan.Check(); err != nil {
		t.Error(err)
	}
	if len(plan.Primitives) != len(g.ConvLayers()) {
		t.Errorf("plan selects %d primitives for %d conv layers", len(plan.Primitives), len(g.ConvLayers()))
	}
}
