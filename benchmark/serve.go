package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/exec"
	"pbqpdnn/internal/selector"
	"pbqpdnn/internal/serve"
	"pbqpdnn/internal/tensor"
)

// Constants of the serving workload. The two offered rates are fixed
// numbers, never derived at run time, so both sides of a comparison are
// offered the same load: about 0.4× and 1.2× the closed-loop capacity
// of ServeHTTP on smallnet, which -capacity measured once on the 2-core
// reference box as ≈1260 req/s. The overload rate sits where the server
// has just saturated (it sheds 5–15% of what it is offered and serves
// ≈1400 req/s). Past ≈1800 req/s it is in congestion collapse — the
// handler decodes each body before admission, so shed requests take the
// CPU served ones need: ≈1130 req/s served of 1900 offered, ≈400 of
// 2500 — and a tenth less CPU from the shared host moves goodput by a
// third, which no bound could hold.
const (
	steadyRPS   = 500
	overloadRPS = 1500
	// overloadLimit is the completion budget of an overload request,
	// from its due time; the server is told the same figure as
	// ?timeout_ms so it can prune what it cannot answer in time. A full
	// default queue (32 requests) already holds an admitted request for
	// about 36 ms on the reference box: at 50 ms the limit sat on that
	// wait and goodput read anywhere from 760 to 1400 req/s between
	// runs of the same code; at 100 ms it is clear of it.
	overloadLimit = 100 * time.Millisecond
	// serveSetups is how many times set-up is repeated; setup_s is the
	// median, since one NewRegistry on smallnet is only a few ms.
	serveSetups = 15
	// distinctInputs is the size of the seeded input pool requests
	// cycle through; sampleEvery is the 1-in-N value check (coprime, so
	// the check visits every input).
	distinctInputs = 61
	sampleEvery    = 64
)

// reply is the answer to one request. Direct Batcher calls are mapped
// to the status the HTTP front end would have sent.
type reply struct {
	status int
	body   []byte         // HTTP path
	out    *tensor.Tensor // direct path
}

// respWriter is the least http.ResponseWriter that keeps the reply.
type respWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.header }
func (w *respWriter) WriteHeader(s int)   { w.status = s }
func (w *respWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(b)
}

// server is one in-process dnnserver: the registry, its handler, and
// the model under load.
type server struct {
	reg *serve.Registry
	m   *serve.Model
	h   http.Handler
	net string
}

func newServer(net string, cfg serve.Config) (*server, error) {
	reg, err := serve.NewRegistry([]string{net}, cfg)
	if err != nil {
		return nil, err
	}
	m, _ := reg.Get(net)
	return &server{reg: reg, m: m, h: serve.NewServer(reg), net: net}, nil
}

func (s *server) close() { s.reg.Close() }

// url is the inference endpoint, carrying the timeout when there is one.
func (s *server) url(timeout time.Duration) string {
	u := "/v1/models/" + s.net + "/infer"
	if timeout > 0 {
		u += fmt.Sprintf("?timeout_ms=%d", timeout.Milliseconds())
	}
	return u
}

// http sends one pre-encoded body through ServeHTTP.
func (s *server) http(url string, body []byte) reply {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{status: http.StatusInternalServerError}
	}
	w := &respWriter{header: http.Header{}}
	s.h.ServeHTTP(w, req)
	return reply{status: w.status, body: w.body.Bytes()}
}

// direct submits one input straight to the model's batcher, skipping
// the HTTP front end (JSON, mux, response encoding).
func (s *server) direct(in *tensor.Tensor, timeout time.Duration) reply {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	out, err := s.m.Batcher.Infer(ctx, in)
	switch {
	case err == nil:
		return reply{status: http.StatusOK, out: out}
	case errors.Is(err, serve.ErrQueueFull):
		return reply{status: http.StatusTooManyRequests}
	case errors.Is(err, context.DeadlineExceeded):
		return reply{status: http.StatusGatewayTimeout}
	}
	return reply{status: http.StatusInternalServerError}
}

// requests is the seeded input pool: tensors, their JSON bodies, and
// the outputs a direct Engine.Run gives for them, which the sampled
// value check compares against.
type requests struct {
	in     []*tensor.Tensor
	bodies [][]byte
	want   []*tensor.Tensor
}

func makeRequests(m *serve.Model, seed int64) (*requests, error) {
	rq := &requests{}
	for i := 0; i < distinctInputs; i++ {
		t := tensor.New(tensor.CHW, m.InC, m.InH, m.InW)
		t.FillRandom(seed*1000 + int64(i))
		body, err := json.Marshal(serve.InferRequest{Data: t.Data})
		if err != nil {
			return nil, err
		}
		want, err := m.Engine().Run(t)
		if err != nil {
			return nil, err
		}
		rq.in, rq.bodies, rq.want = append(rq.in, t), append(rq.bodies, body), append(rq.want, want)
	}
	return rq, nil
}

// valid checks one 200 reply: its shape always, its values against the
// direct Engine.Run of the same input when sampled.
func (rq *requests) valid(m *serve.Model, input int, r reply, sampled bool) bool {
	out := r.out
	if out == nil {
		var resp serve.InferResponse
		if json.Unmarshal(r.body, &resp) != nil || resp.Shape != [3]int{m.OutC, m.OutH, m.OutW} ||
			len(resp.Output) != m.OutC*m.OutH*m.OutW {
			return false
		}
		out = tensor.NewWith(tensor.CHW, m.OutC, m.OutH, m.OutW, resp.Output)
	}
	if out.C != m.OutC || out.H != m.OutH || out.W != m.OutW {
		return false
	}
	return !sampled || tensor.WithinRel(out, rq.want[input], refTolerance)
}

// tally is the outcome count of one phase.
type tally struct {
	attempted, good, shed, expired, late, failed int
	// latencyMS holds the from-due latency of every good reply, goodDue
	// its due time in seconds from the phase start.
	latencyMS []float64
	goodDue   []float64
	lateMS    []float64 // how late the generator sent each request
}

// goodput is the rate of good replies over a phase of the given length:
// the median over five equal windows of due time, so that one stalled
// second does not set the figure. The spread of the five is returned
// with it.
func (t tally) goodput(seconds float64) (rps, spread float64) {
	const windows = 5
	counts := make([]float64, windows)
	for _, due := range t.goodDue {
		counts[min(int(due/seconds*windows), windows-1)] += windows / seconds
	}
	return median(counts), quartileSpread(counts)
}

// phase is one open-loop run at a constant rate.
type phase struct {
	rate    float64
	seconds float64
	// limit, when set, is the from-due completion budget; replies past
	// it are late, and the server is sent it as its timeout.
	limit time.Duration
	// alternate sends every other request straight to the batcher
	// (traced run only), for the HTTP-overhead comparison.
	alternate bool
}

// run drives the phase against s and classifies every reply. With a
// tracer, each request becomes a serve.request span from its due time
// with the call the harness made (serve.http or serve.infer) as child.
func (p phase) run(s *server, rq *requests, rng *rand.Rand, tr *Tracer) (all, direct tally) {
	n := max(1, int(p.rate*p.seconds))
	due := schedule(rng, p.rate, n)
	isDirect := func(i int) bool { return p.alternate && i%2 == 1 }
	url := s.url(p.limit)
	arrivals, wall := openLoop(due, func(i int) reply {
		if isDirect(i) {
			return s.direct(rq.in[i%distinctInputs], p.limit)
		}
		return s.http(url, rq.bodies[i%distinctInputs])
	}, func(i int, r reply) bool {
		return r.status != http.StatusOK || rq.valid(s.m, i%distinctInputs, r, i%sampleEvery == 0)
	})
	end := time.Now()
	start := end.Add(-wall)
	for i, a := range arrivals {
		t := &all
		if isDirect(i) {
			t = &direct
		}
		t.attempted++
		t.lateMS = append(t.lateMS, ms(a.late()))
		switch {
		case a.status == http.StatusTooManyRequests:
			t.shed++
			t.refuse(p)
		case a.status == http.StatusGatewayTimeout:
			t.expired++
			t.refuse(p)
		case a.status != http.StatusOK || !a.valid:
			t.failed++
		case p.limit > 0 && a.latency() > p.limit:
			t.late++
		default:
			t.good++
			t.latencyMS = append(t.latencyMS, ms(a.latency()))
			t.goodDue = append(t.goodDue, a.due.Seconds())
		}
		if tr != nil {
			name := "serve.http"
			if isDirect(i) {
				name = "serve.infer"
			}
			root := tr.add("serve.request", 0, i+1, start.Add(a.due), start.Add(a.done), map[string]any{"status": a.status})
			tr.add(name, root, i+1, start.Add(a.fired), start.Add(a.done), nil)
		}
	}
	return all, direct
}

// refuse accounts for a request the server turned away. Under a limit
// it simply is not goodput. Without one it still has to weigh on the
// latency percentiles, as the worst latency there is: it enters the
// sample at the length of the phase, so a stall that sheds a handful of
// requests leaves p99 where it was and a server that sheds one in
// twenty does not.
func (t *tally) refuse(p phase) {
	if p.limit == 0 {
		t.latencyMS = append(t.latencyMS, p.seconds*1e3)
	}
}

// count adds a phase's outcome to the record. A request that was shed,
// expired or answered late is missed, not failed: the server did what
// it is built to do when it cannot keep up, and the cost shows in
// goodput and the percentiles. Failed is kept for wrong answers.
func (t tally) count(rec *Record) {
	rec.Attempted += t.attempted
	rec.Failed += t.failed
	rec.Missed += t.shed + t.expired + t.late
}

func (t tally) note(rate float64) string {
	return fmt.Sprintf("offered %d at %.0f req/s: good %d, shed %d, expired %d, late %d, failed %d",
		t.attempted, rate, t.good, t.shed, t.expired, t.late, t.failed)
}

func share(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// runServe is the serving workload: dnnserver's default path (analytic
// plans, buckets 1/2/4/8) driven in-process through ServeHTTP by an
// open-loop generator, a steady phase then an overload phase.
func runServe(sp spec, o runOpts) (*Record, error) {
	rec := newRecord(sp.name, o, environment(o.threads))
	rng := rand.New(rand.NewSource(o.seed))
	cfg := serve.Config{}

	// Set-up: NewRegistry to first served request, several times over.
	var srv *server
	var setups []float64
	var rq *requests
	for i := 0; i < serveSetups; i++ {
		if srv != nil {
			srv.close()
		}
		t0 := time.Now()
		var err error
		if srv, err = newServer(sp.net, cfg); err != nil {
			return nil, err
		}
		if rq == nil { // the pool needs the model's shape; generating it is not set-up
			t1 := time.Now()
			if rq, err = makeRequests(srv.m, o.seed); err != nil {
				return nil, err
			}
			t0 = t0.Add(time.Since(t1))
		}
		if r := srv.http(srv.url(0), rq.bodies[0]); r.status != http.StatusOK {
			return nil, fmt.Errorf("%s: first request answered %d", sp.name, r.status)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { srv.close() }()
	plans := make([]*selector.Plan, 0, len(srv.m.Buckets))
	for _, b := range srv.m.Buckets {
		plans = append(plans, b.Plan)
	}
	rec.setPlan(plans...)
	rec.Correct = rq.valid(srv.m, 0, srv.http(srv.url(0), rq.bodies[0]), true)
	rec.Attempted = 1
	if !rec.Correct {
		rec.Failed = 1
	}

	steady := phase{rate: sp.steadyRPS, seconds: o.seconds / 2}
	overload := phase{rate: sp.overloadRPS, seconds: o.seconds / 2, limit: overloadLimit}

	if !o.trace {
		planMS, planSpread, err := planBuildMS(func() (time.Duration, error) {
			t0 := time.Now()
			m, err := serve.LoadModel(sp.net, cfg)
			d := time.Since(t0)
			if err == nil {
				m.Batcher.Close()
			}
			return d, err
		})
		if err != nil {
			return nil, err
		}
		st, _ := steady.run(srv, rq, rng, nil)
		st.count(rec)
		if len(st.latencyMS) == 0 {
			return nil, fmt.Errorf("%s: no request of the steady phase was served", sp.name)
		}
		ov, _ := overload.run(srv, rq, rng, nil)
		ov.count(rec)

		// One request carries one image, so the per-image percentiles
		// read the same distribution as the per-request ones.
		latencyMetrics(rec, "img_ms", st.latencyMS, 50, 75, 95)
		latencyMetrics(rec, "req_ms", st.latencyMS, 50, 99)
		goodput, spread := ov.goodput(overload.seconds)
		rec.set("overload_goodput_rps", goodput, "req/s")
		rec.Spread["overload_goodput_rps"] = spread
		rec.set("setup_s", median(setups), "s")
		rec.set("plan_build_ms", planMS, "ms")
		rec.Spread["plan_build_ms"] = planSpread
		rec.set("steady_rss_mb", rssMiB(), "MiB")
		rec.Notes["steady"] = st.note(sp.steadyRPS)
		rec.Notes["overload"] = ov.note(sp.overloadRPS)
		return rec, nil
	}

	// Traced run: a short untraced steady phase for the overhead
	// baseline, then both phases on a fresh registry whose engines
	// profile every chunk, requests alternating between ServeHTTP and
	// the batcher directly.
	tr := newTracer()
	steady.seconds, overload.seconds = o.seconds/3, o.seconds/3
	base, _ := steady.run(srv, rq, rng, nil)
	base.count(rec)

	traced, err := newServer(sp.net, serve.Config{ProfileSample: 1})
	if err != nil {
		return nil, err
	}
	defer traced.close()
	steady.alternate, overload.alternate = true, true
	viaHTTP, viaBatcher := steady.run(traced, rq, rng, tr)
	viaHTTP.count(rec)
	viaBatcher.count(rec)
	snap := traced.m.Metrics.Snapshot()
	if len(base.latencyMS) == 0 || len(viaHTTP.latencyMS) == 0 || len(viaBatcher.latencyMS) == 0 {
		return nil, fmt.Errorf("%s: a steady phase of the traced run served nothing", sp.name)
	}
	ovHTTP, ovBatcher := overload.run(traced, rq, rng, tr)
	ovHTTP.count(rec)
	ovBatcher.count(rec)

	for metric, phase := range map[string]string{
		"serve.queue_wait_ms_p50": "queue_wait", "serve.assembly_ms_p50": "batch_assembly",
		"serve.engine_ms_p50": "engine", "serve.respond_ms_p50": "respond",
	} {
		rec.set(metric, snap.Phases[phase].P50MS, "ms")
	}
	rec.set("serve.mean_batch", snap.MeanBatch, "count")
	rec.set("serve.http_overhead_ms_p50", median(viaHTTP.latencyMS)-median(viaBatcher.latencyMS), "ms")
	offered := ovHTTP.attempted + ovBatcher.attempted
	rec.set("serve.shed_share", share(ovHTTP.shed+ovBatcher.shed, offered), "ratio")
	rec.set("serve.expired_share", share(ovHTTP.expired+ovBatcher.expired, offered), "ratio")
	rec.set("serve.late_share", share(ovHTTP.late+ovBatcher.late, offered), "ratio")
	late, _ := pctOf(append(viaHTTP.lateMS, viaBatcher.lateMS...), 99)
	rec.set("bench.gen_late_ms_p99", late, "ms")
	rec.set("bench.trace_overhead_pct", 100*(median(viaHTTP.latencyMS)-median(base.latencyMS))/median(base.latencyMS), "%")

	// The engine under the server: the bucket that served the most
	// images, its program replayed layer by layer, and one timed pass
	// of the chain LoadModel runs per bucket.
	bucket := traced.m.Buckets[0]
	for _, b := range traced.m.Buckets[1:] {
		if b.Engine.LayerTable().SampledImages > bucket.Engine.LayerTable().SampledImages {
			bucket = b
		}
	}
	table := bucket.Engine.LayerTable()
	w := traced.m.Weights
	analytic := cost.NewModel(cost.IntelHaswell)
	b, err := buildEngine(tr, 0, traced.m.Net, w, bucket.Batch, o.threads, analytic)
	if err != nil {
		return nil, err
	}
	inputs := makeInputs(traced.m.Net, bucket.Batch, o.seed)
	var want []*tensor.Tensor
	warm := tr.timed("exec.warm", 0, 0, func() { want, err = b.eng.RunBatch(inputs) })
	if err != nil {
		return nil, err
	}
	_, mallocs, allocBytes, err := countedCall(b.eng, inputs, want)
	if err != nil {
		return nil, err
	}
	imgMS, err := engineImgMS(tr, b.eng, inputs, 5)
	if err != nil {
		return nil, err
	}
	buildMetrics(rec, b)
	rec.set("exec.warm_ms", ms(warm), "ms")
	rec.set("exec.allocs_per_call", float64(mallocs), "count")
	rec.set("exec.alloc_kb_per_call", float64(allocBytes)/1024, "KiB")
	layerTableMetrics(rec, table)
	rec.set("cost.calibrate_s", 0, "s") // analytic prices: nothing is measured at start-up
	rec.set("cost.table_entries", 0, "count")
	rec.set("cost.pred_over_obs", b.plan.CostPerImage()*1e3/imgMS, "ratio")
	rec.set("selector.diff_vs_analytic", 0, "count") // the served plan is the analytic plan
	rec.set("selector.analytic_img_ms", imgMS, "ms")
	rec.Notes["engine"] = fmt.Sprintf("per-layer engine metrics are of bucket %d", bucket.Batch)
	replayLayers(rec, tr, bucket.Engine.Program(), w, table, o.threads)

	return rec, tr.write(o.tracePath(sp.name), sp.name, rec.Env, map[string]any{
		"layer_table": table, "serve_stats_steady": snap, "serve_stats_end": traced.m.Metrics.Snapshot(),
	})
}

// countedCall is one RunBatch with the heap allocations it made; an
// output that differs from want is an error.
func countedCall(eng *exec.Engine, inputs, want []*tensor.Tensor) (d time.Duration, mallocs, bytes uint64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	outs, err := eng.RunBatch(inputs)
	d = time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err == nil && !sameOutputs(outs, want) {
		err = errors.New("engine output differs from the checked output")
	}
	return d, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, err
}

// serveMetricsAbsent zeroes the serving-layer metrics on a workload
// that has no server in it.
func serveMetricsAbsent(rec *Record) {
	for _, name := range []string{"serve.queue_wait_ms_p50", "serve.assembly_ms_p50", "serve.engine_ms_p50",
		"serve.respond_ms_p50", "serve.http_overhead_ms_p50"} {
		rec.set(name, 0, "ms")
	}
	rec.set("serve.mean_batch", 0, "count")
	for _, name := range []string{"serve.shed_share", "serve.expired_share", "serve.late_share"} {
		rec.set(name, 0, "ratio")
	}
}

// capacity measures the closed-loop capacity of ServeHTTP on the
// serving workload's network: 16 clients, each sending its next request
// when the last is answered, for three seconds. The rates above are
// fixed fractions of what this printed on the reference box.
func capacity(net string) (float64, error) {
	srv, err := newServer(net, serve.Config{})
	if err != nil {
		return 0, err
	}
	defer srv.close()
	rq, err := makeRequests(srv.m, 1)
	if err != nil {
		return 0, err
	}
	const clients, seconds = 16, 3
	url := srv.url(0)
	served := make(chan int, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		go func(c int) {
			n := 0
			for i := c; time.Since(start).Seconds() < seconds; i++ {
				if srv.http(url, rq.bodies[i%distinctInputs]).status == http.StatusOK {
					n++
				}
			}
			served <- n
		}(c)
	}
	total := 0
	for c := 0; c < clients; c++ {
		total += <-served
	}
	return float64(total) / time.Since(start).Seconds(), nil
}
