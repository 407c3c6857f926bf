package selector

import (
	"fmt"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn"
	"pbqpdnn/internal/tensor"
)

// This file implements every comparison strategy of the paper's
// evaluation (§5.5): the per-family bars, the local-optimal canonical
// layout strategy, the vendor-library proxies, and the baseline — plus
// the no-edge-cost ablation that §5.8 uses to demonstrate why ignoring
// DT costs is wrong.

// nodeCost is a convenience wrapper.
func nodeCost(opts *Options, p *conv.Primitive, s conv.Scenario) float64 {
	return opts.Prof.Primitive(p, s, opts.Threads, 1)
}

// cheapest returns the lowest-node-cost primitive among candidates
// supporting s, or nil.
func cheapest(opts *Options, candidates []*conv.Primitive, s conv.Scenario) *conv.Primitive {
	var best *conv.Primitive
	bestC := 0.0
	for _, p := range candidates {
		if !p.Supports(s) {
			continue
		}
		c := nodeCost(opts, p, s)
		if best == nil || c < bestC {
			best, bestC = p, c
		}
	}
	return best
}

func sum2dOf(lib []*conv.Primitive) (*conv.Primitive, error) {
	return conv.ByName(lib, "sum2d")
}

// Baseline instantiates every convolution with the single-threaded
// sum2d algorithm in the canonical layout — the common denominator all
// the paper's speedup bars are normalized to (§5.2).
func Baseline(net *dnn.Graph, opts Options) (*Plan, error) {
	opts.defaults()
	opts.Threads = 1 // the baseline is always single-threaded
	sum, err := sum2dOf(opts.Lib)
	if err != nil {
		return nil, err
	}
	convChoices := map[int][]*conv.Primitive{}
	for _, id := range net.ConvLayers() {
		convChoices[id] = []*conv.Primitive{sum}
	}
	pr, err := build(net, &opts, convChoices, []tensor.Layout{tensor.CHW}, 1, 1)
	if err != nil {
		return nil, err
	}
	return pr.finish(net, &opts, "sum2d")
}

// FamilyBest implements the paper's per-family bars: for each layer
// pick the family's fastest variant *by node cost alone* if it beats
// sum2d, else keep sum2d (§5.5), then legalize — transform placement is
// still optimized, but primitive choice ignored DT costs, which is
// exactly what makes these bars suboptimal (§5.8).
func FamilyBest(net *dnn.Graph, family conv.Family, opts Options) (*Plan, error) {
	opts.defaults()
	sum, err := sum2dOf(opts.Lib)
	if err != nil {
		return nil, err
	}
	members := conv.ByFamily(opts.Lib, family)
	convChoices := map[int][]*conv.Primitive{}
	for _, id := range net.ConvLayers() {
		s := net.Layers[id].Conv
		pick := cheapest(&opts, members, s)
		// sum2d runs single-threaded whatever the mode; compare fairly.
		sumCost := opts.Prof.Primitive(sum, s, 1, 1)
		if pick == nil || nodeCost(&opts, pick, s) >= sumCost {
			pick = sum
		}
		convChoices[id] = []*conv.Primitive{pick}
	}
	pr, err := build(net, &opts, convChoices, tensor.Layouts(), 1, 1)
	if err != nil {
		return nil, err
	}
	return pr.finish(net, &opts, family.String())
}

// LocalOptimal implements §2.2's canonical-layout strategy ("Local
// Optimal (CHW)" in the figures): force every tensor into one layout,
// then pick the fastest primitive operating entirely within it. With a
// fixed layout there are no DT costs and the problem stops being
// NP-hard (§6) — but the answer is worse.
func LocalOptimal(net *dnn.Graph, layout tensor.Layout, opts Options) (*Plan, error) {
	opts.defaults()
	var inLayout []*conv.Primitive
	for _, p := range opts.Lib {
		if p.In == layout && p.Out == layout {
			inLayout = append(inLayout, p)
		}
	}
	convChoices := map[int][]*conv.Primitive{}
	for _, id := range net.ConvLayers() {
		s := net.Layers[id].Conv
		pick := cheapest(&opts, inLayout, s)
		if pick == nil {
			return nil, fmt.Errorf("selector: no %s-only primitive supports layer %q", layout, net.Layers[id].Name)
		}
		convChoices[id] = []*conv.Primitive{pick}
	}
	pr, err := build(net, &opts, convChoices, []tensor.Layout{layout}, 1, 1)
	if err != nil {
		return nil, err
	}
	return pr.finish(net, &opts, "local-opt-"+layout.String())
}

// NoEdgeCost is the §5.8 ablation: select each layer's globally fastest
// primitive ignoring layout-conversion costs entirely, then pay for the
// legalizing transforms afterwards. The gap between this and Select is
// the value of modeling DT costs inside the optimization.
func NoEdgeCost(net *dnn.Graph, opts Options) (*Plan, error) {
	opts.defaults()
	convChoices := map[int][]*conv.Primitive{}
	for _, id := range net.ConvLayers() {
		s := net.Layers[id].Conv
		pick := cheapest(&opts, opts.Lib, s)
		if pick == nil {
			return nil, fmt.Errorf("selector: no primitive supports layer %q", net.Layers[id].Name)
		}
		convChoices[id] = []*conv.Primitive{pick}
	}
	pr, err := build(net, &opts, convChoices, tensor.Layouts(), 1, 1)
	if err != nil {
		return nil, err
	}
	return pr.finish(net, &opts, "no-edge-cost")
}

// vendor proxies ------------------------------------------------------

// CaffeProxy models BVLC Caffe: im2col + GEMM for every convolution,
// everything in the canonical CHW layout, plus framework dispatch
// overhead. (See DESIGN.md §3 for the substitution rationale.)
func CaffeProxy(net *dnn.Graph, opts Options) (*Plan, error) {
	opts.defaults()
	opts.Prof = vendorProfiler{inner: opts.Prof}
	restricted := filterNames(opts.Lib, "im2col-ab", "sum2d")
	convChoices := map[int][]*conv.Primitive{}
	for _, id := range net.ConvLayers() {
		s := net.Layers[id].Conv
		pick := cheapest(&opts, restricted, s)
		if pick == nil {
			return nil, fmt.Errorf("selector: caffe proxy cannot implement layer %q", net.Layers[id].Name)
		}
		convChoices[id] = []*conv.Primitive{pick}
	}
	pr, err := build(net, &opts, convChoices, []tensor.Layout{tensor.CHW}, caffeOverhead, 1)
	if err != nil {
		return nil, err
	}
	plan, err := pr.finish(net, &opts, "caffe")
	if err != nil {
		return nil, err
	}
	plan.scaleNodeCost(caffeOverhead)
	return plan, nil
}

// scaleNodeCost applies a vendor-proxy dispatch tax to the node side of
// the prediction, keeping the per-layer breakdown consistent with the
// scaled total.
func (p *Plan) scaleNodeCost(overhead float64) {
	p.NodeCost *= overhead
	for id := range p.LayerCost {
		p.LayerCost[id] *= overhead
	}
}

// caffeOverhead is the framework dispatch-and-copy tax of the proxy.
const caffeOverhead = 1.30

// mkldnnOverhead is small: MKL-DNN is a thin JIT library.
const mkldnnOverhead = 1.02

// armclOverhead models ARM Compute Library dispatch.
const armclOverhead = 1.12

// vendorMTTax models the multithreaded scaling deficit of the vendor
// libraries versus the paper's statically-composed primitives: the
// vendor runtimes insert an OpenMP barrier per primitive call and fork
// their thread teams repeatedly, costs the paper's measurements show
// growing with core count (§5.6: the PBQP advantage over MKL-DNN grows
// from "competitive" single-threaded to ~2× with four cores).
const vendorMTTax = 1.28

// vendorProfiler applies a vendor proxy's multithreaded tax on top of
// the wrapped profiler's prices at every batch size. The vendor
// libraries it models do not fuse epilogues, so it claims no fusion
// credit.
type vendorProfiler struct {
	inner cost.Profiler
}

func (v vendorProfiler) Primitive(p *conv.Primitive, s conv.Scenario, threads, n int) float64 {
	c := v.inner.Primitive(p, s, threads, n)
	if threads > 1 {
		c *= vendorMTTax
	}
	return c
}

func (v vendorProfiler) Transform(tr tensor.Transform, c, h, w, n int) float64 {
	return v.inner.Transform(tr, c, h, w, n)
}

func (vendorProfiler) EpilogueSaving(*conv.Primitive, conv.Scenario, int) float64 { return 0 }

// MKLDNNProxy models Intel MKL-DNN 0.10: a strong vendor library with
// JIT direct convolution on blocked layouts, blocked-GEMM im2col and 2D
// Winograd — but a fixed internal layout policy rather than global
// layout optimization, and no low-memory 1D Winograd. The proxy runs
// the same PBQP machinery over that restricted library, so it is a
// *generous* stand-in.
func MKLDNNProxy(net *dnn.Graph, opts Options) (*Plan, error) {
	opts.defaults()
	opts.Prof = vendorProfiler{inner: opts.Prof}
	restricted := filterPrefix(opts.Lib,
		"direct-chw8", "direct-chw4", "im2col-blk", "im2col-chw4", "wino2d-")
	// Drop the HWC winograd variants: the vendor library works in
	// blocked/canonical layouts only.
	var vendor []*conv.Primitive
	for _, p := range restricted {
		if p.In == tensor.HWC || p.Out == tensor.HWC {
			continue
		}
		vendor = append(vendor, p)
	}
	sum, err := sum2dOf(opts.Lib)
	if err != nil {
		return nil, err
	}
	vendor = append(vendor, sum)
	convChoices := map[int][]*conv.Primitive{}
	for _, id := range net.ConvLayers() {
		s := net.Layers[id].Conv
		var cands []*conv.Primitive
		for _, p := range vendor {
			if p.Supports(s) {
				cands = append(cands, p)
			}
		}
		convChoices[id] = cands
	}
	pr, err := build(net, &opts, convChoices, tensor.Layouts(), mkldnnOverhead, 1)
	if err != nil {
		return nil, err
	}
	plan, err := pr.finish(net, &opts, "mkldnn")
	if err != nil {
		return nil, err
	}
	plan.scaleNodeCost(mkldnnOverhead)
	return plan, nil
}

// ARMCLProxy models the ARM Compute Library bar of Figure 7: direct and
// im2col NEON kernels in the canonical layout.
func ARMCLProxy(net *dnn.Graph, opts Options) (*Plan, error) {
	opts.defaults()
	opts.Prof = vendorProfiler{inner: opts.Prof}
	restricted := filterNames(opts.Lib,
		"direct-mchw", "direct-strided", "direct-tiled-16", "im2col-ab", "im2col-blk", "sum2d")
	convChoices := map[int][]*conv.Primitive{}
	for _, id := range net.ConvLayers() {
		s := net.Layers[id].Conv
		pick := cheapest(&opts, restricted, s)
		if pick == nil {
			return nil, fmt.Errorf("selector: armcl proxy cannot implement layer %q", net.Layers[id].Name)
		}
		convChoices[id] = []*conv.Primitive{pick}
	}
	pr, err := build(net, &opts, convChoices, []tensor.Layout{tensor.CHW}, armclOverhead, 1)
	if err != nil {
		return nil, err
	}
	plan, err := pr.finish(net, &opts, "armcl")
	if err != nil {
		return nil, err
	}
	plan.scaleNodeCost(armclOverhead)
	return plan, nil
}

func filterNames(lib []*conv.Primitive, names ...string) []*conv.Primitive {
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	var out []*conv.Primitive
	for _, p := range lib {
		if set[p.Name] {
			out = append(out, p)
		}
	}
	return out
}

func filterPrefix(lib []*conv.Primitive, prefixes ...string) []*conv.Primitive {
	var out []*conv.Primitive
	for _, p := range lib {
		for _, pre := range prefixes {
			if len(p.Name) >= len(pre) && p.Name[:len(pre)] == pre {
				out = append(out, p)
				break
			}
		}
	}
	return out
}
