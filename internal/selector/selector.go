// Package selector implements the paper's primary contribution: optimal
// per-layer primitive selection in the presence of data layout
// transformations, via reduction to PBQP (§3).
//
// Every layer of the network becomes a PBQP node. Convolution layers
// choose among the library primitives that support their scenario, at
// the profiled execution cost; all other layers are zero-cost wildcard
// nodes whose choices are the data layouts themselves (§5.2). Each DNN
// edge carries a cost matrix of layout-conversion costs taken from the
// DT graph's all-pairs closure for the tensor shape flowing over that
// edge. Solving the PBQP instance yields the globally cheapest
// instantiation; a legalization pass then materializes the conversion
// chains on edges whose endpoint layouts disagree.
package selector

import (
	"fmt"
	"math"
	"time"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn"
	"pbqpdnn/internal/dtgraph"
	"pbqpdnn/internal/pbqp"
	"pbqpdnn/internal/tensor"
)

// Plan is a fully legalized instantiation of a network.
type Plan struct {
	Net      *dnn.Graph
	Strategy string
	Threads  int

	// Batch is the minibatch size the plan was optimized for: node costs
	// priced the batched entry points at this N and edge costs the
	// batched conversion slabs. Values ≤ 1 mark a batch-agnostic plan
	// (selected per image, executable at any batch size — the contract
	// every plan had before batch-aware selection); a plan with Batch > 1
	// is only valid for exactly that batch bucket, which CheckBatch
	// enforces.
	Batch int

	// Primitives maps each conv layer id to its selected primitive.
	Primitives map[int]*conv.Primitive
	// Layouts maps every layer id to its selected *output* layout.
	Layouts map[int]tensor.Layout
	// Conversions maps each graph edge to the (possibly empty) chain of
	// direct transforms legalizing it.
	Conversions map[[2]int][]tensor.Transform

	// NodeCost and EdgeCost split the predicted execution time (s).
	NodeCost, EdgeCost float64
	// FusionCredit is the total predicted saving from epilogue fusion
	// already subtracted from NodeCost: on every edge whose producer is a
	// fusion-capable convolution feeding exactly one elementwise
	// consumer in the same layout, the compiler's fusion pass folds the
	// consumer into the producer's writeback, so the selector credits
	// the saved streaming pass to the producer's LayerCost.
	FusionCredit float64
	// LayerCost breaks NodeCost down per conv layer id, and EdgeCosts
	// breaks EdgeCost down per legalized edge — the predicted side of
	// the per-layer predicted-vs-observed join (internal/obs). Both are
	// whole-batch seconds, like NodeCost/EdgeCost themselves.
	LayerCost map[int]float64
	EdgeCosts map[[2]int]float64
	// Optimal reports whether the PBQP solver proved optimality.
	Optimal bool
	// SolveTime is the wall-clock time spent in the PBQP solver.
	SolveTime time.Duration
}

// TotalCost is the predicted whole-network execution time in seconds
// (for the whole batch when the plan was selected at Batch > 1).
func (p *Plan) TotalCost() float64 { return p.NodeCost + p.EdgeCost }

// CostPerImage is the predicted execution time per image: TotalCost
// divided by the plan's batch size.
func (p *Plan) CostPerImage() float64 {
	if p.Batch > 1 {
		return p.TotalCost() / float64(p.Batch)
	}
	return p.TotalCost()
}

// Check verifies the plan's structural integrity for execution: every
// conv layer has a primitive whose layouts agree with the plan, and
// every edge's conversion chain actually connects the producer's
// output layout to the consumer's input layout. Executors (notably the
// batched engine, which reuses one plan across a whole minibatch)
// call it once up front so a malformed plan fails fast instead of
// producing garbage mid-schedule. A Plan is immutable after
// construction and safe for concurrent executors.
func (p *Plan) Check() error {
	for _, l := range p.Net.Layers {
		if _, ok := p.Layouts[l.ID]; !ok {
			return fmt.Errorf("selector: plan for %q has no layout for layer %q", p.Net.Name, l.Name)
		}
		if l.IsConv() {
			prim := p.Primitives[l.ID]
			if prim == nil {
				return fmt.Errorf("selector: plan for %q has no primitive for conv layer %q", p.Net.Name, l.Name)
			}
			if prim.Out != p.Layouts[l.ID] {
				return fmt.Errorf("selector: layer %q: primitive %s produces %s, plan records %s",
					l.Name, prim.Name, prim.Out, p.Layouts[l.ID])
			}
		}
	}
	for _, e := range p.Net.Edges() {
		u, v := e[0], e[1]
		from := p.Layouts[u]
		to := p.Layouts[v]
		if prim, ok := p.Primitives[v]; ok {
			to = prim.In
		}
		cur := from
		for _, tr := range p.Conversions[e] {
			if tr.From != cur {
				return fmt.Errorf("selector: edge %s→%s: transform %s expects %s, chain carries %s",
					p.Net.Layers[u].Name, p.Net.Layers[v].Name, tr.Name, tr.From, cur)
			}
			cur = tr.To
		}
		if cur != to {
			return fmt.Errorf("selector: edge %s→%s: chain legalizes %s→%s, consumer wants %s",
				p.Net.Layers[u].Name, p.Net.Layers[v].Name, from, cur, to)
		}
	}
	return nil
}

// CheckBatch verifies the plan for execution at the given batch bucket:
// structural integrity (Check) plus the bucket/plan agreement — a plan
// selected against batch-N costs must execute at exactly N, while a
// batch-agnostic (per-image) plan may execute at any size. Compilers
// (program.CompileBatch, and through it exec.NewEngineBatch) call it so
// a serving registry can never silently execute bucket B against a plan
// optimized for a different bucket.
func (p *Plan) CheckBatch(batch int) error {
	if err := p.Check(); err != nil {
		return err
	}
	if p.Batch > 1 && p.Batch != batch {
		return fmt.Errorf("selector: plan for %q was selected at batch %d, cannot execute batch bucket %d",
			p.Net.Name, p.Batch, batch)
	}
	return nil
}

// Options configures a selection run.
type Options struct {
	// Lib is the primitive library (conv.Library() by default).
	Lib []*conv.Primitive
	// Prof prices primitives and transforms.
	Prof cost.Profiler
	// Threads is the execution thread count being optimized for.
	Threads int
	// Mode selects the PBQP fallback (heuristic RN vs exact B&B).
	Mode pbqp.Mode
}

func (o *Options) defaults() {
	if o.Lib == nil {
		o.Lib = conv.Library()
	}
	if o.Threads < 1 {
		o.Threads = 1
	}
}

// dtCache builds DT closures lazily per (tensor shape, batch), since
// transform costs depend on the tensor dimensions on each edge (§3.1)
// and, for batched selection, on the size of the batched slab the
// legalized conversion will actually move.
type dtCache struct {
	prof  cost.Profiler
	batch int
	m     map[[3]int]*dtgraph.Graph
}

func newDTCache(prof cost.Profiler, batch int) *dtCache {
	if batch < 1 {
		batch = 1
	}
	return &dtCache{prof: prof, batch: batch, m: map[[3]int]*dtgraph.Graph{}}
}

func (d *dtCache) get(c, h, w int) *dtgraph.Graph {
	key := [3]int{c, h, w}
	if g, ok := d.m[key]; ok {
		return g
	}
	g := dtgraph.New(tensor.DirectTransforms(), func(tr tensor.Transform) float64 {
		return d.prof.Transform(tr, c, h, w, d.batch)
	})
	d.m[key] = g
	return g
}

// choice is one PBQP assignment for a layer: either a primitive (conv
// layers) or a bare layout (wildcard layers).
type choice struct {
	prim   *conv.Primitive
	layout tensor.Layout
}

func (c choice) inLayout() tensor.Layout {
	if c.prim != nil {
		return c.prim.In
	}
	return c.layout
}

func (c choice) outLayout() tensor.Layout {
	if c.prim != nil {
		return c.prim.Out
	}
	return c.layout
}

// problem is the assembled PBQP instance plus its back-mapping. It
// carries the DT-closure cache from assembly into legalization, so
// finish never recomputes the per-shape closures build already paid
// for, and the batch size the instance was priced at.
type problem struct {
	graph   *pbqp.Graph
	choices [][]choice // per layer id
	dts     *dtCache
	batch   int
}

// build assembles the PBQP instance for one batch bucket. convChoices
// gives the candidate primitives per conv layer; layoutChoices the
// candidate layouts per wildcard layer; overhead scales node costs
// (vendor-proxy dispatch tax). Node costs price the batched entry
// points at the bucket size, and edge costs the batched conversion
// slabs, so each bucket's instance is a genuinely different PBQP.
func build(net *dnn.Graph, opts *Options, convChoices map[int][]*conv.Primitive,
	layoutChoices []tensor.Layout, overhead float64, batch int) (*problem, error) {
	if batch < 1 {
		batch = 1
	}
	pr := &problem{
		graph:   pbqp.NewGraph(),
		choices: make([][]choice, net.NumLayers()),
		dts:     newDTCache(opts.Prof, batch),
		batch:   batch,
	}
	dts := pr.dts
	for _, l := range net.Layers {
		var cs []choice
		var costs []float64
		if l.IsConv() {
			prims := convChoices[l.ID]
			if len(prims) == 0 {
				return nil, fmt.Errorf("selector: no candidate primitive for layer %q %s", l.Name, l.Conv)
			}
			for _, p := range prims {
				c := opts.Prof.Primitive(p, l.Conv, opts.Threads, batch) * overhead
				// A +Inf cost means the profiler has no entry (a pruned
				// candidate of a top-K calibrated table): exclude it from
				// the instance rather than hand the solver infinities.
				if math.IsInf(c, 1) {
					continue
				}
				cs = append(cs, choice{prim: p})
				costs = append(costs, c)
			}
			if len(cs) == 0 {
				return nil, fmt.Errorf("selector: no priced candidate primitive for layer %q %s (profiler table missing the scenario?)", l.Name, l.Conv)
			}
		} else {
			for _, lay := range layoutChoices {
				cs = append(cs, choice{layout: lay})
				costs = append(costs, 0)
			}
		}
		pr.choices[l.ID] = cs
		if id := pr.graph.AddNode(costs); id != l.ID {
			return nil, fmt.Errorf("selector: node id mismatch %d != %d", id, l.ID)
		}
	}
	for _, e := range net.Edges() {
		u, v := e[0], e[1]
		lu := net.Layers[u]
		dt := dts.get(lu.OutC, lu.OutH, lu.OutW)
		fusable := fusionEligibleEdge(net, u, v)
		m := pbqp.NewMatrix(len(pr.choices[u]), len(pr.choices[v]))
		for i, cu := range pr.choices[u] {
			// Fusion credit: on an eligible edge, a capable primitive
			// whose output layout matches the consumer's folds the
			// elementwise pass into its own writeback — priced as a
			// negative entry on the layout-agreeing diagonal, so the
			// solver weighs the saving against conversion costs exactly
			// where the fusion pass can realize it.
			var credit float64
			if fusable && cu.prim != nil {
				base := opts.Prof.Primitive(cu.prim, lu.Conv, opts.Threads, batch)
				credit = fusionCredit(opts.Prof, cu.prim, lu.Conv, batch, base) * overhead
			}
			for j, cv := range pr.choices[v] {
				c := dt.Cost(cu.outLayout(), cv.inLayout())
				if credit > 0 && cu.outLayout() == cv.inLayout() {
					c -= credit
				}
				m.Set(i, j, c)
			}
		}
		pr.graph.AddEdge(u, v, m)
	}
	return pr, nil
}

// fusionEligibleEdge reports whether graph edge u→v is one the
// compiler's fusion pass can fold: u is a convolution whose value feeds
// exactly this one consumer, v is an elementwise epilogue kind, and v
// is not the network output (the output stays its own fresh
// instruction). This is the selector's static over-approximation of the
// fusion legality the compiler and verifier recompute per program; the
// remaining conditions (same layout, no conversion on the edge) are
// priced per choice pair.
func fusionEligibleEdge(net *dnn.Graph, u, v int) bool {
	if !net.Layers[u].IsConv() {
		return false
	}
	if succs := net.Succs(u); len(succs) != 1 || succs[0] != v {
		return false
	}
	switch net.Layers[v].Kind {
	case dnn.KindReLU, dnn.KindAdd:
	default:
		return false
	}
	return len(net.Succs(v)) > 0
}

// fusionCredit is the priced saving for fusing one elementwise epilogue
// into primitive p's writeback: zero for a primitive that cannot fuse
// (no credit may ever be claimed the fusion pass cannot realize), and
// clamped so no credit can exceed 90% of the node's own cost — the
// epilogue can at most save the streaming pass, never make the
// convolution free.
func fusionCredit(prof cost.Profiler, p *conv.Primitive, s conv.Scenario, batch int, base float64) float64 {
	if !p.CanFuseEpilogue() {
		return 0
	}
	save := prof.EpilogueSaving(p, s, batch)
	if max := 0.9 * base; save > max {
		save = max
	}
	return save
}

// finish solves the instance and materializes the legalized plan.
func (pr *problem) finish(net *dnn.Graph, opts *Options, name string) (*Plan, error) {
	start := time.Now()
	sol := pr.graph.Solve(opts.Mode)
	elapsed := time.Since(start)

	plan := &Plan{
		Net:         net,
		Strategy:    name,
		Threads:     opts.Threads,
		Batch:       pr.batch,
		Primitives:  map[int]*conv.Primitive{},
		Layouts:     map[int]tensor.Layout{},
		Conversions: map[[2]int][]tensor.Transform{},
		LayerCost:   map[int]float64{},
		EdgeCosts:   map[[2]int]float64{},
		Optimal:     sol.Optimal,
		SolveTime:   elapsed,
	}
	dts := pr.dts
	for _, l := range net.Layers {
		ch := pr.choices[l.ID][sol.Selection[l.ID]]
		plan.Layouts[l.ID] = ch.outLayout()
		if l.IsConv() {
			plan.Primitives[l.ID] = ch.prim
			c := opts.Prof.Primitive(ch.prim, l.Conv, opts.Threads, pr.batch)
			plan.LayerCost[l.ID] = c
			plan.NodeCost += c
		}
	}
	// Legalization (§3): bisect every edge whose endpoint layouts
	// disagree with the least-cost conversion chain from the DT closure.
	for _, e := range net.Edges() {
		u, v := e[0], e[1]
		lu := net.Layers[u]
		from := pr.choices[u][sol.Selection[u]].outLayout()
		to := pr.choices[v][sol.Selection[v]].inLayout()
		if from == to {
			continue
		}
		dt := dts.get(lu.OutC, lu.OutH, lu.OutW)
		chain, err := dt.Path(from, to)
		if err != nil {
			return nil, fmt.Errorf("selector: edge %s→%s: %w", net.Layers[u].Name, net.Layers[v].Name, err)
		}
		plan.Conversions[e] = chain
		plan.EdgeCosts[e] = dt.Cost(from, to)
		plan.EdgeCost += dt.Cost(from, to)
	}
	// Fusion credit: re-derive, per eligible edge whose selected layouts
	// agree, the same saving build priced into the PBQP instance, and
	// attribute it to the producer layer — LayerCost stays an exact
	// partition of NodeCost.
	for _, e := range net.Edges() {
		u, v := e[0], e[1]
		if !fusionEligibleEdge(net, u, v) {
			continue
		}
		from := pr.choices[u][sol.Selection[u]].outLayout()
		to := pr.choices[v][sol.Selection[v]].inLayout()
		if from != to {
			continue
		}
		lu := net.Layers[u]
		credit := fusionCredit(opts.Prof, plan.Primitives[u], lu.Conv, pr.batch, plan.LayerCost[u])
		if credit <= 0 {
			continue
		}
		plan.LayerCost[u] -= credit
		plan.NodeCost -= credit
		plan.FusionCredit += credit
	}
	return plan, nil
}

// Select runs the paper's full PBQP strategy: every supporting
// primitive is a candidate for every conv layer, wildcard layers range
// over all layouts, and the solver finds the global optimum. The plan
// is priced per image (batch 1) and stays batch-agnostic: executors
// may compile it at any batch size. It is SelectBatch at N = 1.
func Select(net *dnn.Graph, opts Options) (*Plan, error) {
	return SelectBatch(net, 1, opts)
}

// SelectBatch runs the full PBQP strategy against the costs of one
// batch bucket: every conv node is priced by the batched entry points
// at N images (amortized setup for primitives with a real batched
// implementation, linear scaling for the per-image fallback), and
// every edge by the cost of converting the N-image slab that actually
// flows over it. Each bucket therefore gets its own PBQP
// instance and, in general, a different optimal plan — batched im2row
// and wino2d amortize work the per-image primitives cannot, so the
// cost-optimal primitive per layer genuinely changes with N. The
// returned plan records Batch = N; CheckBatch ties it to its bucket.
func SelectBatch(net *dnn.Graph, batch int, opts Options) (*Plan, error) {
	if batch < 1 {
		return nil, fmt.Errorf("selector: invalid batch size %d", batch)
	}
	opts.defaults()
	convChoices := map[int][]*conv.Primitive{}
	for _, id := range net.ConvLayers() {
		convChoices[id] = conv.Supporting(opts.Lib, net.Layers[id].Conv)
	}
	pr, err := build(net, &opts, convChoices, tensor.Layouts(), 1, batch)
	if err != nil {
		return nil, err
	}
	return pr.finish(net, &opts, "pbqp")
}
