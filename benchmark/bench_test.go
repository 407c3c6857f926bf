package main

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

func TestResolvedPercentile(t *testing.T) {
	cases := []struct {
		n      int
		target float64
		want   float64
	}{
		{40, 75, 75},     // 40 calls carry p75 exactly: ten samples beyond it
		{40, 95, 75},     // and nothing higher
		{200, 95, 95},    // 200 calls carry p95
		{1000, 99, 99},   // 1000 requests carry p99
		{999, 99, 98.99}, // one fewer does not
		{14, 75, 50},     // too few for anything above the median
		{5, 99, 50},
		{0, 99, 50},
	}
	for _, c := range cases {
		if got := resolvedPct(c.n, c.target); math.Abs(got-c.want) > 0.01 {
			t.Errorf("resolvedPct(%d, %v) = %v, want %v", c.n, c.target, got, c.want)
		}
	}
	// The value read must leave at least ten samples above it.
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := pctOf(xs, 95); v != 30 || p != 75 {
		t.Errorf("pctOf(1..40, 95) = %v at p%v, want 30 at p75", v, p)
	}
	if v := percentile([]float64{1, 2, 3, 4}, 50); v != 2 {
		t.Errorf("nearest-rank median of 1..4 = %v, want 2", v)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
	// Ten samples in five windows: window medians 1.5, 3.5, … 9.5.
	if got, want := blockSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5, median), quartileSpread([]float64{1.5, 3.5, 5.5, 7.5, 9.5}); got != want {
		t.Errorf("blockSpread = %v, want %v", got, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "b", StartNS: 20, EndNS: 50},  // overlaps a: [10,50] counted once
		{ID: 4, Parent: 1, Name: "c", StartNS: 60, EndNS: 120}, // clipped to the parent's end
		{ID: 5, Parent: 3, Name: "grandchild", StartNS: 25, EndNS: 45},
	}
	selfTimes(spans)
	want := map[string]int64{"root": 100 - 40 - 40, "a": 20, "b": 30 - 20, "c": 60, "grandchild": 20}
	for _, s := range spans {
		if s.SelfNS != want[s.Name] {
			t.Errorf("self time of %s = %d, want %d", s.Name, s.SelfNS, want[s.Name])
		}
	}
	var nilTracer *Tracer
	if id := nilTracer.add("x", 0, 0, time.Now(), time.Now(), nil); id != 0 {
		t.Errorf("nil tracer recorded a span")
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	a := arrival{due: 10 * time.Millisecond, fired: 14 * time.Millisecond, done: 20 * time.Millisecond}
	if a.latency() != 10*time.Millisecond || a.late() != 4*time.Millisecond {
		t.Errorf("latency %v late %v, want 10ms from the due time and 4ms late", a.latency(), a.late())
	}

	due := schedule(rand.New(rand.NewSource(3)), 1000, 1000)
	again := schedule(rand.New(rand.NewSource(3)), 1000, 1000)
	for i := range due {
		if due[i] != again[i] {
			t.Fatalf("schedule is not a function of the seed at %d", i)
		}
		if i > 0 && due[i] <= due[i-1] {
			t.Fatalf("arrivals reorder at %d: %v then %v", i, due[i-1], due[i])
		}
	}
	if last := due[len(due)-1]; last < 990*time.Millisecond || last > time.Second {
		t.Errorf("1000 arrivals at 1000/s end at %v, want just under 1s", last)
	}

	// A generator that starts behind schedule: every request is due at
	// once, each takes 2ms, and its latency still counts from its due
	// time, so none can read below the service time.
	arrivals, wall := openLoop(make([]time.Duration, 8), func(int) reply {
		time.Sleep(2 * time.Millisecond)
		return reply{status: 200}
	}, func(i int, r reply) bool { return i != 3 })
	for i, a := range arrivals {
		if a.status != 200 || a.valid != (i != 3) || a.fired < a.due || a.done < a.fired+2*time.Millisecond || a.latency() != a.done-a.due {
			t.Errorf("arrival %d: %+v", i, a)
		}
		if a.done > wall {
			t.Errorf("arrival %d finished after the phase wall", i)
		}
	}
}

func testContract(t *testing.T) *Contract {
	t.Helper()
	c := &Contract{}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCompare(t *testing.T) {
	c := testContract(t)
	set := func(variant string, scale float64, spread float64) *ResultSet {
		rs := &ResultSet{Env: Environment{GemmVariant: variant, Threads: 2}}
		for _, w := range c.Workloads {
			r := &Record{Workload: w.Name, Metrics: map[string]Metric{}, Spread: map[string]float64{}}
			for _, d := range c.EndToEnd {
				r.Metrics[d.Name] = Metric{Value: 100 * scale, Unit: d.Unit}
			}
			r.Spread["img_ms_p50"] = spread
			rs.Records = append(rs.Records, r)
		}
		return rs
	}
	if _, err := compare(c, set("avx2", 1, 0), set("go", 1, 0), false); err == nil {
		t.Error("compared records of different gemm variants")
	}
	other := set("avx2", 1, 0)
	other.Env.Threads = 4
	if _, err := compare(c, set("avx2", 1, 0), other, false); err == nil {
		t.Error("compared records of different thread counts")
	}

	// 30% higher everywhere: worse for every lower-is-better metric,
	// better for goodput; a symmetric check flags both.
	vs, err := compare(c, set("avx2", 1, 0), set("avx2", 1.3, 0), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		lower := v.Metric != "overload_goodput_rps"
		if v.Over != lower {
			t.Errorf("%s/%s: over=%v with worse-by %.2f", v.Workload, v.Metric, v.Over, v.WorseBy)
		}
	}
	vs, _ = compare(c, set("avx2", 1, 0), set("avx2", 1.3, 0), true)
	for _, v := range vs {
		if !v.Over {
			t.Errorf("selfcheck let a 30%% gap pass on %s/%s", v.Workload, v.Metric)
		}
	}
	// Equal values but a window spread above the bound: unresolved.
	vs, _ = compare(c, set("avx2", 1, 0.9), set("avx2", 1, 0), true)
	for _, v := range vs {
		if v.Over || v.Unresolved != (v.Metric == "img_ms_p50") {
			t.Errorf("%s/%s: over=%v unresolved=%v", v.Workload, v.Metric, v.Over, v.Unresolved)
		}
	}
}

// TestSmoke runs every phase of both workload kinds on micronet and
// holds the records to BENCHMARK.json: every named metric measured,
// under the named unit, and one parseable trace per workload.
func TestSmoke(t *testing.T) {
	c := testContract(t)
	threads := min(runtime.NumCPU(), 4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(threads))
	o := runOpts{seed: 5, threads: threads, outDir: t.TempDir()}
	if err := smoke(c, o); err != nil {
		t.Fatal(err)
	}
	for _, sp := range smokeWorkloads {
		var tf traceFile
		if err := readJSON(o.tracePath(sp.name), &tf); err != nil {
			t.Fatal(err)
		}
		if len(tf.Spans) == 0 || tf.Tables["layer_table"] == nil {
			t.Errorf("%s: trace has %d spans, layer table %v", sp.name, len(tf.Spans), tf.Tables["layer_table"] != nil)
		}
		for _, s := range tf.Spans {
			if s.SelfNS < 0 || s.SelfNS > s.EndNS-s.StartNS {
				t.Errorf("%s: span %s has self time %d of %d", sp.name, s.Name, s.SelfNS, s.EndNS-s.StartNS)
			}
		}
		for _, traced := range []bool{false, true} {
			o.trace = traced
			if _, err := os.Stat(o.resultPath(sp.name)); err != nil {
				t.Error(err)
			}
		}
	}
}
