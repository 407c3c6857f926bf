package cost

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/dnn"
	"pbqpdnn/internal/gemm"
	"pbqpdnn/internal/tensor"
)

// Table is a materialized, serializable cost table: every
// (scenario, primitive, threads) node cost and every
// (transform, shape) conversion cost a network's optimization needs,
// optionally per minibatch size. This implements the paper's deployment
// story (§4): "the resulting cost tables are tiny compared to the
// weight data … making it feasible to produce these cost tables before
// deployment, and ship them with the trained model". Profile once per
// hardware platform per DNN model — with the Measure profiler on the
// real device, at the batch sizes the deployment will serve — then ship
// the JSON and re-solve on the target without ever running a primitive.
//
// Key format: batch-1 entries use the bare scenario/shape key (the
// format tables used before batching, so old tables load unchanged);
// batch-N entries append "@N". Batched lookups that miss fall back to
// the batch-1 entry scaled linearly by N — the conservative
// no-amortization estimate — so a batch-1-only table still drives
// per-bucket selection, just without measured amortization.
type Table struct {
	// Machine documents the platform the table was profiled on.
	Machine string `json:"machine"`
	// GemmVariant documents which packed-GEMM microkernel ("avx2" or
	// "go") was dispatched while the entries were measured. Measured
	// costs are variant-specific — the microkernels differ ~4× on
	// GEMM-backed primitives — so a table must only drive selection on
	// a host dispatching the same variant; a calibrating serve.Registry
	// re-measures a table whose variant differs. Absent in tables
	// written before runtime dispatch existed (implicitly "go").
	GemmVariant string `json:"gemm_variant,omitempty"`
	// Threads is the thread count the entries were profiled at.
	Threads int `json:"threads"`
	// Batches records the minibatch sizes profiled into the table.
	// Empty means batch 1 only (the pre-batching table format).
	Batches []int `json:"batches,omitempty"`
	// Nodes maps scenario (suffixed "@N" for batch N > 1) → primitive
	// name → seconds for the whole batch.
	Nodes map[string]map[string]float64 `json:"nodes"`
	// Transforms maps shape ("CxHxW", suffixed "@N" for batch N > 1) →
	// transform name → seconds for the whole batch.
	Transforms map[string]map[string]float64 `json:"transforms"`
	// Epilogues maps scenario (suffixed "@N") → primitive name → the
	// seconds saved by fusing one elementwise epilogue into that
	// primitive's writeback (the selector's fusion credit). Absent in
	// tables written before fusion-aware profiling; missing entries
	// claim no credit, which is always sound.
	Epilogues map[string]map[string]float64 `json:"epilogues,omitempty"`
}

func shapeKey(c, h, w int) string { return fmt.Sprintf("%dx%dx%d", c, h, w) }

// nodeKey is the Nodes map key for a scenario at batch n. Batch-1 keys
// are the bare scenario string for compatibility with tables written
// before batch-aware profiling.
func nodeKey(s conv.Scenario, n int) string {
	if n <= 1 {
		return s.String()
	}
	return fmt.Sprintf("%s@%d", s.String(), n)
}

// transformKey is the Transforms map key for a shape at batch n.
func transformKey(c, h, w, n int) string {
	if n <= 1 {
		return shapeKey(c, h, w)
	}
	return fmt.Sprintf("%s@%d", shapeKey(c, h, w), n)
}

// NewTable returns an empty table for the named machine, ready for
// AddNet. The table is stamped with the packed-GEMM microkernel
// variant the process currently dispatches to, since that is what the
// Measure profiler will wall-clock into it.
func NewTable(machine string, threads int) *Table {
	return &Table{
		Machine:     machine,
		GemmVariant: gemm.Variant(),
		Threads:     threads,
		Nodes:       map[string]map[string]float64{},
		Transforms:  map[string]map[string]float64{},
	}
}

// AddNet profiles every (layer scenario, supporting primitive) pair of
// the network and every direct transform at every edge shape, at every
// requested batch size, merging the entries into the table. Entries
// already present (from a previous AddNet — a registry calibrating
// several hosted models into one table) are not re-profiled.
func (t *Table) AddNet(net *dnn.Graph, lib []*conv.Primitive, prof Profiler, batches []int) {
	t.AddNetTopK(net, lib, nil, prof, batches, 0)
}

// AddNetTopK is AddNet with per-scenario candidate pruning — the
// practical form of the paper's §3.1 profiling stage when the profiler
// actually executes primitives (cost.Measure) on a full-size network:
// wall-clocking all ~70 library entries per layer per batch bucket
// costs hours, but the analytic ranker agrees with the hardware about
// which handful are contenders. For each conv scenario the shortlist is
// the union, over the requested batch sizes, of the ranker's k cheapest
// supporting primitives at that batch — so both the per-image favorites
// and the batch-amortized favorites get measured — and only the
// shortlist is priced with meas. Unmeasured primitives stay absent
// (+Inf to the selector, which prunes them from the PBQP instance).
// k ≤ 0 or a nil ranker disables pruning and measures everything.
func (t *Table) AddNetTopK(net *dnn.Graph, lib []*conv.Primitive, ranker, meas Profiler, batches []int, k int) {
	if len(batches) == 0 {
		batches = []int{1}
	}
	for _, b := range batches {
		t.noteBatch(b)
	}
	for _, id := range net.ConvLayers() {
		s := net.Layers[id].Conv
		cands := conv.Supporting(lib, s)
		if k > 0 && ranker != nil && len(cands) > k {
			keep := map[string]bool{}
			for _, b := range batches {
				ranked := append([]*conv.Primitive(nil), cands...)
				sort.SliceStable(ranked, func(i, j int) bool {
					return ranker.Primitive(ranked[i], s, t.Threads, b) <
						ranker.Primitive(ranked[j], s, t.Threads, b)
				})
				for i := 0; i < k && i < len(ranked); i++ {
					keep[ranked[i].Name] = true
				}
			}
			var short []*conv.Primitive
			for _, p := range cands {
				if keep[p.Name] {
					short = append(short, p)
				}
			}
			cands = short
		}
		for _, b := range batches {
			key := nodeKey(s, b)
			row := t.Nodes[key]
			if row == nil {
				row = map[string]float64{}
				t.Nodes[key] = row
			}
			for _, p := range cands {
				if _, done := row[p.Name]; !done {
					row[p.Name] = meas.Primitive(p, s, t.Threads, b)
				}
				if save := meas.EpilogueSaving(p, s, b); save > 0 {
					if t.Epilogues == nil {
						t.Epilogues = map[string]map[string]float64{}
					}
					erow := t.Epilogues[key]
					if erow == nil {
						erow = map[string]float64{}
						t.Epilogues[key] = erow
					}
					if _, done := erow[p.Name]; !done {
						erow[p.Name] = save
					}
				}
			}
		}
	}
	for _, b := range batches {
		for _, l := range net.Layers {
			key := transformKey(l.OutC, l.OutH, l.OutW, b)
			if _, done := t.Transforms[key]; done {
				continue
			}
			row := map[string]float64{}
			for _, tr := range tensor.DirectTransforms() {
				row[tr.Name] = meas.Transform(tr, l.OutC, l.OutH, l.OutW, b)
			}
			t.Transforms[key] = row
		}
	}
}

// noteBatch records a profiled batch size (sorted, deduplicated).
func (t *Table) noteBatch(b int) {
	for _, have := range t.Batches {
		if have == b {
			return
		}
	}
	t.Batches = append(t.Batches, b)
	sort.Ints(t.Batches)
}

// BuildTable profiles the network at batch 1 — the paper's §3.1
// profiling stage, materialized. It is BuildTableBatches at {1}.
func BuildTable(net *dnn.Graph, lib []*conv.Primitive, prof Profiler, machine string, threads int) *Table {
	return BuildTableBatches(net, lib, prof, machine, threads, []int{1})
}

// BuildTableBatches profiles the network at every given batch size:
// the batch-aware §3.1 profiling stage, pricing each (scenario,
// primitive) pair and each edge shape per minibatch bucket so the
// per-bucket PBQP solves on the target need the table alone.
func BuildTableBatches(net *dnn.Graph, lib []*conv.Primitive, prof Profiler, machine string, threads int, batches []int) *Table {
	t := NewTable(machine, threads)
	t.AddNet(net, lib, prof, batches)
	return t
}

// lookup answers a Profiler query from one table section: the entry at
// batch n's key, else — the documented no-amortization estimate that
// keeps batch-1-only tables usable for per-bucket selection — n times
// the batch-1 entry, else miss.
func lookup(section map[string]map[string]float64, key func(n int) string, name string, n int, miss float64) float64 {
	if v, ok := section[key(n)][name]; ok {
		return v
	}
	if n > 1 {
		if v, ok := section[key(1)][name]; ok {
			return float64(n) * v
		}
	}
	return miss
}

// Primitive implements Profiler from the materialized table. Entries
// missing from the table (a scenario or primitive that was not
// profiled) cost +Inf, so the selector will never choose them.
func (t *Table) Primitive(p *conv.Primitive, s conv.Scenario, threads, n int) float64 {
	return lookup(t.Nodes, func(n int) string { return nodeKey(s, n) }, p.Name, n, math.Inf(1))
}

// Transform implements Profiler from the materialized table; missing
// entries cost +Inf.
func (t *Table) Transform(tr tensor.Transform, c, h, w, n int) float64 {
	return lookup(t.Transforms, func(n int) string { return transformKey(c, h, w, n) }, tr.Name, n, math.Inf(1))
}

// EpilogueSaving implements Profiler from the table. The saving is a
// streaming pass over the output slab, linear in the batch, and a
// scenario with no epilogue entry claims zero — never a fabricated
// credit.
func (t *Table) EpilogueSaving(p *conv.Primitive, s conv.Scenario, n int) float64 {
	return lookup(t.Epilogues, func(n int) string { return nodeKey(s, n) }, p.Name, n, 0)
}

// NumEntries returns the total number of profiled costs — the "tiny"
// size the paper contrasts against model weights.
func (t *Table) NumEntries() int {
	n := 0
	for _, row := range t.Nodes {
		n += len(row)
	}
	for _, row := range t.Transforms {
		n += len(row)
	}
	return n
}

// Save writes the table as JSON.
func (t *Table) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t)
}

// LoadTable reads a table written by Save (any version: tables written
// before batch-aware profiling carry bare shape keys, which the
// batched lookups treat as batch-1 entries).
func LoadTable(r io.Reader) (*Table, error) {
	var t Table
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("cost: decoding table: %w", err)
	}
	if t.Nodes == nil || t.Transforms == nil {
		return nil, fmt.Errorf("cost: table missing sections")
	}
	return &t, nil
}
