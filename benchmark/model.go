package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn"
	"pbqpdnn/internal/dnn/models"
	"pbqpdnn/internal/exec"
	"pbqpdnn/internal/obs"
	"pbqpdnn/internal/program"
	"pbqpdnn/internal/selector"
	"pbqpdnn/internal/tensor"
	"pbqpdnn/internal/verify"
)

// Calibration constants of the three model workloads: every conv layer
// is priced by wall-clocking the analytic model's calibTopK cheapest
// candidates, best of calibReps. Three repetitions is the value at
// which calibrated plans stopped moving img_ms_p50 past its bound
// between runs on the 2-core reference box (see README, "Plan flips").
const (
	calibReps = 3
	calibTopK = 4
	// planBuildReps is the least number of select+compile+verify+bind
	// repetitions behind plan_build_ms; cheap plans repeat until
	// planBuildFloor has passed so the median is steady.
	planBuildReps  = 20
	planBuildFloor = time.Second
	// refTolerance is the relative tolerance of every output check.
	refTolerance = 1e-4
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// built is one pass of the restart-with-a-saved-table chain, with the
// wall time of each stage.
type built struct {
	plan *selector.Plan
	prog *program.Program
	eng  *exec.Engine

	sel, compile, verify, bind time.Duration
}

func (b *built) total() time.Duration { return b.sel + b.compile + b.verify + b.bind }

// buildEngine runs select → compile → verify → bind against prof, each
// stage in a span under parent.
func buildEngine(tr *Tracer, parent int, net *dnn.Graph, w *exec.Weights, batch, threads int, prof cost.Profiler) (*built, error) {
	b := &built{}
	var err error
	start := time.Now()
	b.plan, err = selector.SelectBatch(net, batch, selector.Options{Prof: prof, Threads: threads})
	end := time.Now()
	if err != nil {
		return nil, fmt.Errorf("select %s at batch %d: %w", net.Name, batch, err)
	}
	b.sel = end.Sub(start)
	if id := tr.add("selector.select", parent, 0, start, end, nil); id != 0 {
		// The solver's share of the selection, as the plan reports it.
		tr.add("pbqp.solve", id, 0, end.Add(-b.plan.SolveTime), end, map[string]any{"optimal": b.plan.Optimal})
	}
	b.compile = tr.timed("program.compile", parent, 0, func() { b.prog, err = program.CompileBatch(b.plan, batch) })
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", net.Name, err)
	}
	b.verify = tr.timed("verify.program", parent, 0, func() { err = verify.Program(b.prog) })
	if err != nil {
		return nil, fmt.Errorf("verify %s: %w", net.Name, err)
	}
	b.bind = tr.timed("exec.engine_build", parent, 0, func() { b.eng, err = exec.NewEngineFromProgram(b.prog, w) })
	if err != nil {
		return nil, fmt.Errorf("bind %s: %w", net.Name, err)
	}
	return b, nil
}

// makeInputs generates one batch of input images from the seed.
func makeInputs(net *dnn.Graph, n int, seed int64) []*tensor.Tensor {
	in := net.Layers[0]
	out := make([]*tensor.Tensor, n)
	for i := range out {
		out[i] = tensor.New(tensor.CHW, in.OutC, in.OutH, in.OutW)
		out[i].FillRandom(seed*1000 + int64(i))
	}
	return out
}

func sameOutputs(got, want []*tensor.Tensor) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !tensor.WithinRel(got[i], want[i], refTolerance) {
			return false
		}
	}
	return true
}

// rssMiB reads the resident set after returning freed memory to the
// OS: the least of three collect-and-read rounds, since one round can
// catch the runtime before dead goroutine stacks and pooled buffers of
// the phase just ended are released.
func rssMiB() float64 {
	least := math.Inf(1)
	for i := 0; i < 3; i++ {
		debug.FreeOSMemory()
		data, err := os.ReadFile("/proc/self/status")
		if err != nil {
			return 0
		}
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
				kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
				least = math.Min(least, kb/1024)
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return least
}

// planBuildMS is the median wall of rebuilding the engine from an
// already-priced table, and the spread of that median within the run.
func planBuildMS(build func() (time.Duration, error)) (med, spread float64, err error) {
	var samples []float64
	start := time.Now()
	for len(samples) < planBuildReps || (time.Since(start) < planBuildFloor && len(samples) < 50*planBuildReps) {
		d, err := build()
		if err != nil {
			return 0, 0, err
		}
		samples = append(samples, ms(d))
	}
	return median(samples), blockSpread(samples, 5, median), nil
}

// latencyMetrics fills the latency percentiles of one sample set under
// the ten-beyond rule, noting what each resolved to. Where a third of
// the samples is enough to carry the percentile, the value is the
// median of the three consecutive thirds' percentiles, so that a stall
// confined to one stretch of the run does not set the figure; otherwise
// it is read from the whole sample.
func latencyMetrics(r *Record, prefix string, samples []float64, targets ...float64) {
	const windows = 3
	for _, p := range targets {
		name := fmt.Sprintf("%s_p%.0f", prefix, p)
		resolved := resolvedPct(len(samples), p)
		at := func(w []float64) float64 { v, _ := pctOf(w, resolved); return v }
		how := "whole sample"
		if resolvedPct(len(samples)/windows, p) == p {
			how = "median of three windows"
			vals := make([]float64, windows)
			for k := range vals {
				vals[k] = at(samples[k*len(samples)/windows : (k+1)*len(samples)/windows])
			}
			r.set(name, median(vals), "ms")
		} else {
			r.set(name, at(samples), "ms")
		}
		r.Spread[name] = blockSpread(samples, 5, at)
		r.Notes[name] = fmt.Sprintf("n=%d, read at p%.1f, %s", len(samples), resolved, how)
	}
}

// runModel is a closed-loop model workload: one caller issuing
// RunBatch calls of sp.batch images back to back on the plan calibrated
// on this host.
func runModel(sp spec, o runOpts) (*Record, error) {
	rec := newRecord(sp.name, o, environment(o.threads))
	var tr *Tracer
	if o.trace {
		tr = newTracer()
	}

	// Set-up: the paper's profile → select → compile pipeline, timed.
	setupStart := time.Now()
	net, err := models.Build(sp.net)
	if err != nil {
		return nil, err
	}
	w := exec.NewWeights(net)
	analytic := cost.NewModel(cost.IntelHaswell)
	tab := cost.NewTable("benchmark-host", o.threads)
	calibrate := tr.timed("cost.calibrate", 0, 0, func() {
		tab.AddNetTopK(net, conv.Library(), analytic, &cost.Measure{Reps: calibReps, Threads: o.threads},
			[]int{sp.batch}, calibTopK)
	})
	b, err := buildEngine(tr, 0, net, w, sp.batch, o.threads, tab)
	if err != nil {
		return nil, err
	}
	inputs := makeInputs(net, sp.batch, o.seed)
	var want []*tensor.Tensor
	warm := tr.timed("exec.warm", 0, 0, func() { want, err = b.eng.RunBatch(inputs) })
	if err != nil {
		return nil, fmt.Errorf("warm call: %w", err)
	}
	setup := time.Since(setupStart)
	rec.setPlan(b.plan)

	// Correctness gate, outside set-up time: the engine against the
	// textbook reference on the first image; every later call is held
	// to the checked outputs.
	ref, err := exec.Reference(net, inputs[0], w)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	rec.Correct = tensor.WithinRel(want[0], ref, refTolerance)
	rec.Attempted, rec.Failed = 1, 0
	if !rec.Correct {
		rec.Failed = 1
	}

	rebuild := func() (time.Duration, error) {
		nb, err := buildEngine(nil, 0, net, w, sp.batch, o.threads, tab)
		if err != nil {
			return 0, err
		}
		return nb.total(), nil
	}

	if !o.trace {
		planMS, planSpread, err := planBuildMS(rebuild)
		if err != nil {
			return nil, err
		}
		var perImg []float64
		var wall time.Duration
		for start := time.Now(); time.Since(start).Seconds() < o.seconds || rec.Attempted <= minCalls; {
			t0 := time.Now()
			outs, err := b.eng.RunBatch(inputs)
			d := time.Since(t0)
			rec.Attempted++
			if err != nil || !sameOutputs(outs, want) {
				rec.Failed++
				continue
			}
			wall += d
			perImg = append(perImg, ms(d)/float64(sp.batch))
		}
		if len(perImg) == 0 {
			return nil, fmt.Errorf("%s: every timed call failed", sp.name)
		}
		perCall := make([]float64, len(perImg))
		for i, v := range perImg {
			perCall[i] = v * float64(sp.batch)
		}
		latencyMetrics(rec, "img_ms", perImg, 50, 75, 95)
		// One RunBatch call is the request a closed-loop caller sees.
		latencyMetrics(rec, "req_ms", perCall, 50, 99)
		// A closed loop offers the next batch at once, so the engine is
		// always saturated: its image rate is its goodput.
		rec.set("overload_goodput_rps", float64(len(perImg)*sp.batch)/wall.Seconds(), "req/s")
		rec.Spread["overload_goodput_rps"] = blockSpread(perImg, 5, func(w []float64) float64 { return 1 / median(w) })
		rec.set("setup_s", setup.Seconds(), "s")
		rec.set("plan_build_ms", planMS, "ms")
		rec.Spread["plan_build_ms"] = planSpread
		rec.set("steady_rss_mb", rssMiB(), "MiB")
		runtime.KeepAlive(b)
		return rec, nil
	}

	// Traced run. Calls alternate between the plain engine (untraced,
	// allocation-counted) and a second engine with per-instruction
	// profiling on, each profiled call inside a span; the gap between
	// the two medians is the tracing overhead.
	profEng, err := exec.NewEngineFromProgram(b.prog, w)
	if err != nil {
		return nil, err
	}
	profEng.EnableProfiling(1)
	if _, err := profEng.RunBatch(inputs); err != nil {
		return nil, err
	}
	var plain, traced []float64
	var mallocs, allocBytes uint64
	for start := time.Now(); time.Since(start).Seconds() < o.seconds*2/3 || rec.Attempted < 7; {
		d, nm, nb, err := countedCall(b.eng, inputs, want)
		rec.Attempted++
		if err != nil {
			rec.Failed++
		} else {
			plain = append(plain, ms(d)/float64(sp.batch))
			mallocs, allocBytes = mallocs+nm, allocBytes+nb
		}

		t0 := time.Now()
		outs, err := profEng.RunBatch(inputs)
		t1 := time.Now()
		rec.Attempted++
		if err != nil || !sameOutputs(outs, want) {
			rec.Failed++
			continue
		}
		tr.add("exec.run_batch", 0, len(traced)+1, t0, t1, map[string]any{"images": sp.batch})
		traced = append(traced, ms(t1.Sub(t0))/float64(sp.batch))
	}
	if len(plain) == 0 || len(traced) == 0 {
		return nil, fmt.Errorf("%s: every call of the traced run failed", sp.name)
	}
	table := profEng.LayerTable()
	imgP50 := median(plain)

	rec.set("cost.calibrate_s", calibrate.Seconds(), "s")
	rec.set("cost.table_entries", float64(tab.NumEntries()), "count")
	rec.set("cost.pred_over_obs", b.plan.CostPerImage()*1e3/imgP50, "ratio")
	buildMetrics(rec, b)
	rec.set("exec.warm_ms", ms(warm), "ms")
	rec.set("exec.allocs_per_call", float64(mallocs)/float64(len(plain)), "count")
	rec.set("exec.alloc_kb_per_call", float64(allocBytes)/float64(len(plain))/1024, "KiB")
	layerTableMetrics(rec, table)
	rec.set("bench.trace_overhead_pct", 100*(median(traced)-imgP50)/imgP50, "%")
	rec.set("bench.gen_late_ms_p99", 0, "ms") // closed loop: no arrival schedule to run late against

	// The analytic plan on the same inputs: what dnnserver deploys by
	// default, and the distance calibration buys.
	ab, err := buildEngine(nil, 0, net, w, sp.batch, o.threads, analytic)
	if err != nil {
		return nil, err
	}
	diff := 0
	for id, p := range b.plan.Primitives {
		if ab.plan.Primitives[id].Name != p.Name {
			diff++
		}
	}
	rec.set("selector.diff_vs_analytic", float64(diff), "count")
	analyticMS, err := engineImgMS(tr, ab.eng, inputs, 5)
	if err != nil {
		return nil, err
	}
	rec.set("selector.analytic_img_ms", analyticMS, "ms")

	replayLayers(rec, tr, b.prog, w, table, o.threads)
	serveMetricsAbsent(rec)
	return rec, tr.write(o.tracePath(sp.name), sp.name, rec.Env, map[string]any{"layer_table": table})
}

// engineImgMS is the best of reps RunBatch calls, per image.
func engineImgMS(tr *Tracer, eng *exec.Engine, inputs []*tensor.Tensor, reps int) (float64, error) {
	var err error
	s := bestSeconds(tr, "exec.run_batch_best", reps, func() {
		if _, e := eng.RunBatch(inputs); e != nil {
			err = e
		}
	})
	return s * 1e3 / float64(len(inputs)), err
}

// buildMetrics reports one buildEngine pass: stage times and the static
// facts of the plan and program it produced.
func buildMetrics(rec *Record, b *built) {
	rec.set("selector.select_ms", ms(b.sel), "ms")
	rec.set("pbqp.solve_ms", ms(b.plan.SolveTime), "ms")
	optimal := 0.0
	if b.plan.Optimal {
		optimal = 1
	}
	rec.set("pbqp.optimal", optimal, "bool")
	rec.set("selector.edge_cost_share", b.plan.EdgeCost/b.plan.TotalCost(), "ratio")
	chains := 0
	for _, chain := range b.plan.Conversions {
		if len(chain) > 0 {
			chains++
		}
	}
	rec.set("selector.conv_chains", float64(chains), "count")
	st := b.prog.Stats
	rec.set("program.compile_ms", ms(b.compile), "ms")
	rec.set("verify.verify_ms", ms(b.verify), "ms")
	rec.set("program.instrs", float64(st.Instructions), "count")
	rec.set("program.fused_epilogues", float64(st.FusedEpilogues), "count")
	rec.set("program.fused_conversions", float64(st.FusedConversions), "count")
	rec.set("program.slots", float64(st.Slots), "count")
	rec.set("program.peak_kb", float64(st.PeakBytes)/1024, "KiB")
	rec.set("exec.engine_build_ms", ms(b.bind), "ms")
}

// shareOf maps an instruction op to the share metric it is counted in.
func shareOf(op string) string {
	switch op {
	case "conv":
		return "exec.share_conv"
	case "fc":
		return "exec.share_fc"
	case "maxpool", "avgpool":
		return "exec.share_pool"
	case "lrn":
		return "exec.share_lrn"
	case "relu", "add":
		return "exec.share_eltwise"
	case "convert":
		return "exec.share_convert"
	}
	return "exec.share_other" // input, concat, softmax, dropout
}

// layerTableMetrics reads the profiled engine's per-instruction table:
// where the engine's busy time went, and how far the cost model's
// per-layer predictions are from what the layer took.
func layerTableMetrics(rec *Record, t *obs.LayerTable) {
	shares := map[string]float64{"exec.share_conv": 0, "exec.share_fc": 0, "exec.share_pool": 0, "exec.share_lrn": 0,
		"exec.share_eltwise": 0, "exec.share_convert": 0, "exec.share_other": 0}
	var errs []float64
	top := 0.0
	for _, row := range t.Rows {
		shares[shareOf(row.Op)] += row.Share
		top = math.Max(top, row.Share)
		if row.Op == "conv" && row.Ratio > 0 {
			errs = append(errs, math.Abs(math.Log(row.Ratio)))
		}
	}
	for name, v := range shares {
		rec.set(name, v, "ratio")
	}
	rec.set("exec.top1_layer_share", top, "ratio")
	rec.set("exec.coverage", t.Coverage, "ratio")
	errP50, errMax := 0.0, 0.0
	if len(errs) > 0 {
		errP50 = median(errs)
		for _, e := range errs {
			errMax = math.Max(errMax, e)
		}
	}
	rec.set("cost.layer_err_p50", errP50, "ln")
	rec.set("cost.layer_err_max", errMax, "ln")
}

// fillRandom fills xs with seeded values in [-1, 1).
func fillRandom(xs []float32, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range xs {
		xs[i] = rng.Float32()*2 - 1
	}
}
