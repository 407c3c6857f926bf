package serve

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn"
	"pbqpdnn/internal/dnn/models"
	"pbqpdnn/internal/exec"
	"pbqpdnn/internal/gemm"
	"pbqpdnn/internal/obs"
	"pbqpdnn/internal/selector"
	"pbqpdnn/internal/tensor"
)

// Config configures model loading for a Registry.
type Config struct {
	// Threads is the selection-time thread budget per engine (the
	// engine itself caps its pool at GOMAXPROCS). Default: GOMAXPROCS.
	Threads int

	// Prof prices primitives and transforms during plan selection.
	// Default: the analytic Intel Haswell model. A deployment can pass
	// a cost.Table loaded from a serialized profile (examples/deploy's
	// §4 story) so the PBQP solve uses on-device measurements without
	// ever executing a primitive at startup.
	Prof cost.Profiler

	// Calibrate enables calibrate-on-start: before any model loads, the
	// registry runs the measured profiler (cost.Measure, wall-clocking
	// the real primitives — batched entry points included) over every
	// hosted network at every batch bucket, and selection runs against
	// the resulting table instead of Prof. When TablePath names an
	// existing file measured under the same packed-GEMM variant and
	// thread count, the table is loaded from it instead of re-profiled,
	// so a restarted server reuses its previous calibration; a fresh
	// calibration is persisted there.
	Calibrate bool
	// TablePath is where the calibration table is persisted/reloaded.
	// Empty means calibrate in memory only (measured every start).
	TablePath string
	// CalibrateReps is the best-of repetition count per measurement
	// (default 1: calibration runs every primitive at every bucket, so
	// startup time matters more than single-run jitter).
	CalibrateReps int
	// CalibrateTopK bounds measurement per scenario to the analytic
	// model's k cheapest candidates per bucket (default 4; ≤ 0 keeps
	// the default — measuring all ~70 library entries on a full-size
	// network costs hours).
	CalibrateTopK int

	// ProfileSample enables per-instruction execution profiling on every
	// bucket engine, timing one dispatched chunk in every ProfileSample
	// (1 = always-on, the bench setting; serving defaults pick a sparse
	// rate like 16 so the hot path pays one atomic counter bump per
	// unsampled chunk). 0 disables profiling entirely: the engines carry
	// no profile and the per-instruction path allocates and times
	// nothing. The aggregated predicted-vs-observed tables surface on
	// GET /layers and feed the ROADMAP's adaptive re-selection loop.
	ProfileSample int

	// Batch tunes every model's dynamic batcher.
	Batch BatchOptions
}

func (c *Config) defaults() {
	if c.Threads < 1 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.Prof == nil {
		c.Prof = cost.NewModel(cost.IntelHaswell)
	}
	if c.CalibrateReps < 1 {
		c.CalibrateReps = 1
	}
	if c.CalibrateTopK < 1 {
		c.CalibrateTopK = 4
	}
}

// Bucket is one batch-size bucket of a served model: the bucket's own
// PBQP plan — selected against costs priced at exactly this batch size
// — and the engine compiled from it.
type Bucket struct {
	// Batch is the bucket's maximum batch size (the N its program's
	// memory plan and its plan's costs were computed for).
	Batch  int
	Plan   *selector.Plan
	Engine *exec.Engine
}

// Model is one served network: its graph, the per-bucket PBQP plans and
// the engines compiled from them (shared by all requests), and the
// dynamic batcher feeding those engines. The Buckets slice is the
// single source of truth for plans and engines; Plan/Engine/EngineFor
// are views over it.
type Model struct {
	Name    string
	Net     *dnn.Graph
	Weights *exec.Weights

	// Buckets holds one entry per batch-size bucket, ascending
	// (1, 2, 4, … MaxBatch): each bucket selects its own plan against
	// batch-N costs and compiles its own program — the memory plan is
	// N-dependent, and so is the cost-optimal primitive per layer.
	Buckets []Bucket

	Batcher *Batcher
	Metrics *Metrics

	InC, InH, InW    int // network input shape
	OutC, OutH, OutW int // network output shape
}

// Plan returns the batch-1 bucket's plan — what single-image paths
// report against.
func (m *Model) Plan() *selector.Plan { return m.Buckets[0].Plan }

// Engine returns the batch-1 bucket's engine, the same batched kernels
// over a one-image frame: the direct single-image path that bypasses
// the batcher, and the singleton-flush fallback.
func (m *Model) Engine() *exec.Engine { return m.Buckets[0].Engine }

// batchBuckets enumerates the program-cache bucket sizes for a batcher
// limit: powers of two up to maxBatch, plus maxBatch itself.
func batchBuckets(maxBatch int) []int {
	var bs []int
	for b := 1; b < maxBatch; b *= 2 {
		bs = append(bs, b)
	}
	return append(bs, maxBatch)
}

// EngineFor returns the cached engine whose planned batch is the
// smallest bucket that fits n (the largest bucket for oversized n,
// which the engine then chunks).
func (m *Model) EngineFor(n int) *exec.Engine {
	for _, b := range m.Buckets {
		if b.Engine.MaxBatch() >= n {
			return b.Engine
		}
	}
	return m.Buckets[len(m.Buckets)-1].Engine
}

// LoadModel builds, selects, and compiles one named network (see
// models.Names) and wraps it in a running batcher. Selection and
// compilation happen once per batch-size bucket, all at startup, so no
// request ever waits on planning: each bucket gets its own PBQP solve
// against costs priced at that batch size (selector.SelectBatch) and
// its own compiled program. The batcher routes every flush to the
// bucket engine covering its size.
func LoadModel(name string, cfg Config) (*Model, error) {
	cfg.defaults()
	bo := cfg.Batch
	bo.defaults()
	net, err := models.Build(name)
	if err != nil {
		return nil, err
	}
	w := exec.NewWeights(net)
	m := &Model{
		Name:    name,
		Net:     net,
		Weights: w,
	}
	for _, b := range batchBuckets(bo.MaxBatch) {
		plan, err := selector.SelectBatch(net, b, selector.Options{Prof: cfg.Prof, Threads: cfg.Threads})
		if err != nil {
			return nil, fmt.Errorf("serve: selecting plan for %s (batch %d): %w", name, b, err)
		}
		eng, err := exec.NewEngineBatch(plan, w, b)
		if err != nil {
			return nil, fmt.Errorf("serve: compiling %s (batch %d): %w", name, b, err)
		}
		if cfg.ProfileSample > 0 {
			eng.EnableProfiling(cfg.ProfileSample)
		}
		m.Buckets = append(m.Buckets, Bucket{Batch: b, Plan: plan, Engine: eng})
	}
	met := NewMetrics()
	m.Metrics = met
	m.Batcher = NewBatcher(func(ins []*tensor.Tensor) ([]*tensor.Tensor, error) {
		return m.EngineFor(len(ins)).RunBatch(ins)
	}, cfg.Batch, met)
	in := net.Layers[0]
	m.InC, m.InH, m.InW = in.OutC, in.OutH, in.OutW
	out := net.Layers[len(net.Layers)-1]
	m.OutC, m.OutH, m.OutW = out.OutC, out.OutH, out.OutW
	return m, nil
}

// LayerTables snapshots every bucket engine's per-layer
// predicted-vs-observed profile table, ascending by bucket size. Nil
// when profiling is disabled (Config.ProfileSample = 0); buckets that
// have not yet sampled a chunk still appear, with zero observations.
func (m *Model) LayerTables() []*obs.LayerTable {
	var out []*obs.LayerTable
	for _, b := range m.Buckets {
		if t := b.Engine.LayerTable(); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// BucketStats describes one bucket's selection for /stats: which
// primitive each conv layer runs at this batch size, and the predicted
// versus observed per-image cost — the closed loop between the §3.1
// profile, the PBQP solve, and what the engine actually delivers.
type BucketStats struct {
	Batch int `json:"batch"`
	// Primitives maps conv layer name → selected primitive name.
	Primitives map[string]string `json:"primitives"`
	// PredictedNsPerImage is the plan's TotalCost scaled to one image.
	PredictedNsPerImage float64 `json:"predicted_ns_per_image"`
	// ObservedNsPerImage is the measured mean engine wall time per
	// image over the dispatched batch sizes this bucket serves (0 until
	// the bucket has served a batch).
	ObservedNsPerImage float64 `json:"observed_ns_per_image"`
	// Optimal reports whether the bucket's PBQP solve proved optimality.
	Optimal bool `json:"pbqp_optimal"`
}

// BucketStats snapshots every bucket's selection and its predicted vs
// observed per-image cost. A bucket serves the dispatched batch sizes
// in (previous bucket, this bucket], mirroring EngineFor's routing.
func (m *Model) BucketStats() []BucketStats {
	out := make([]BucketStats, 0, len(m.Buckets))
	lo := 1
	for _, b := range m.Buckets {
		prims := make(map[string]string, len(b.Plan.Primitives))
		for id, p := range b.Plan.Primitives {
			prims[m.Net.Layers[id].Name] = p.Name
		}
		out = append(out, BucketStats{
			Batch:               b.Batch,
			Primitives:          prims,
			PredictedNsPerImage: b.Plan.CostPerImage() * 1e9,
			ObservedNsPerImage:  m.Metrics.ObservedNsPerImage(lo, b.Batch),
			Optimal:             b.Plan.Optimal,
		})
		lo = b.Batch + 1
	}
	return out
}

// Registry hosts multiple named models behind one server process.
type Registry struct {
	mu     sync.RWMutex
	models map[string]*Model
}

// calibrationProfiler resolves the profiler a calibrating registry
// selects against: the table at cfg.TablePath when it exists (a
// restarted server reuses its previous calibration), else a fresh
// measured calibration, persisted to cfg.TablePath when set. A table
// measured under another packed-GEMM microkernel or thread count
// prices a different machine, so it counts as absent: the registry
// recalibrates from scratch and overwrites the file. A reused table is
// topped up, not trusted blindly: every hosted network is
// merged at every current batch bucket (Table.AddNetTopK skips entries
// already measured), so a restart with a larger -max-batch or a newly
// hosted model measures exactly the missing entries — instead of
// silently selecting non-amortized fallback plans for uncovered
// buckets, or failing startup on an uncovered model — and the enriched
// table is persisted back.
func calibrationProfiler(names []string, cfg *Config) (*cost.Table, error) {
	var tab *cost.Table
	if cfg.TablePath != "" {
		if f, err := os.Open(cfg.TablePath); err == nil {
			tab, err = cost.LoadTable(f)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("serve: reusing calibration %s: %w", cfg.TablePath, err)
			}
		}
	}
	if tab != nil {
		variant := tab.GemmVariant
		if variant == "" {
			variant = "go" // tables written before runtime dispatch
		}
		if variant != gemm.Variant() || tab.Threads != cfg.Threads {
			tab = nil
		}
	}
	fresh := tab == nil
	if fresh {
		tab = cost.NewTable("calibrated-"+runtime.GOOS+"-"+runtime.GOARCH, cfg.Threads)
	}
	before := tab.NumEntries()

	bo := cfg.Batch
	bo.defaults()
	buckets := batchBuckets(bo.MaxBatch)
	ranker := cfg.Prof
	meas := &cost.Measure{Reps: cfg.CalibrateReps, Threads: cfg.Threads}
	lib := conv.Library()
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			continue
		}
		seen[name] = true
		net, err := models.Build(name)
		if err != nil {
			return nil, err
		}
		tab.AddNetTopK(net, lib, ranker, meas, buckets, cfg.CalibrateTopK)
	}

	if cfg.TablePath != "" && (fresh || tab.NumEntries() != before) {
		f, err := os.Create(cfg.TablePath)
		if err != nil {
			return nil, fmt.Errorf("serve: persisting calibration: %w", err)
		}
		defer f.Close()
		if err := tab.Save(f); err != nil {
			return nil, fmt.Errorf("serve: persisting calibration: %w", err)
		}
	}
	return tab, nil
}

// NewRegistry loads every named model. With cfg.Calibrate it first
// resolves the measured cost table (reused from cfg.TablePath or
// profiled on the spot and persisted there) and selects every bucket
// plan against it. On any failure it closes the models already loaded
// and returns the error.
func NewRegistry(names []string, cfg Config) (*Registry, error) {
	cfg.defaults()
	if cfg.Calibrate {
		tab, err := calibrationProfiler(names, &cfg)
		if err != nil {
			return nil, err
		}
		cfg.Prof = tab
	}
	r := &Registry{models: make(map[string]*Model, len(names))}
	for _, name := range names {
		if _, ok := r.models[name]; ok {
			continue
		}
		m, err := LoadModel(name, cfg)
		if err != nil {
			r.Close()
			return nil, err
		}
		r.models[name] = m
	}
	return r, nil
}

// Get returns the named model, if hosted.
func (r *Registry) Get(name string) (*Model, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.models[name]
	return m, ok
}

// Names lists hosted models in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.models))
	for n := range r.models {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Close drains every model's batcher (graceful shutdown: admitted
// requests complete, new ones get ErrClosed).
func (r *Registry) Close() {
	r.mu.RLock()
	ms := make([]*Model, 0, len(r.models))
	for _, m := range r.models {
		ms = append(ms, m)
	}
	r.mu.RUnlock()
	var wg sync.WaitGroup
	for _, m := range ms {
		wg.Add(1)
		go func(m *Model) {
			defer wg.Done()
			m.Batcher.Close()
		}(m)
	}
	wg.Wait()
}
