// Command dnnserver serves PBQP-optimized networks over HTTP with
// dynamic batching: every hosted model is selected and compiled exactly
// once at startup, then concurrent requests are collected into
// minibatches that share one compiled-program dispatch
// (exec.Engine.RunBatch).
//
// Serve:
//
//	dnnserver -models smallnet,alexnet -addr :8080
//	curl localhost:8080/models
//	curl -d '{"data":[...]}' localhost:8080/v1/models/smallnet/infer
//	curl localhost:8080/stats
//
// Observability: GET /metrics exposes the serving counters in
// Prometheus text format and GET /layers the per-layer
// predicted-vs-observed execution profile (sampled 1-in-N per
// -profile-sample). -debug-addr starts a second listener carrying
// net/http/pprof and expvar, kept off the serving address so profiling
// endpoints are never internet-facing by accident:
//
//	dnnserver -models smallnet -addr :8080 -debug-addr 127.0.0.1:6060
//	curl localhost:8080/metrics
//	curl localhost:6060/debug/pprof/profile?seconds=5 > cpu.pb.gz
//
// Serving under load is measured by the benchmark module's open-loop
// serve_smallnet workload (bash benchmark/run.sh --workload
// serve_smallnet): it drives serve.NewServer in process under this
// command's default configuration.
//
// Selection uses the analytic Intel Haswell cost model unless -costs
// points at a serialized cost table (see examples/deploy for the §4
// profile-once-ship-the-table deployment story).
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux for -debug-addr
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn/models"
	"pbqpdnn/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dnnserver: ")

	addr := flag.String("addr", ":8080", "HTTP listen address")
	debugAddr := flag.String("debug-addr", "",
		"optional second listen address for net/http/pprof and expvar (empty = disabled); keep it loopback-only in production")
	profileSample := flag.Int("profile-sample", 16,
		"per-instruction execution profiling: time one dispatched minibatch in every N (1 = every batch, 0 = disabled); tables on GET /layers")
	modelList := flag.String("models", "smallnet",
		fmt.Sprintf("comma-separated models to host (from %v)",
			append(models.Names(), models.DemoNames()...)))
	threads := flag.Int("threads", 0, "selection thread budget per engine (0 = GOMAXPROCS)")
	costsPath := flag.String("costs", "", "optional serialized cost table (JSON) to drive selection instead of the analytic model")
	calibrate := flag.Bool("calibrate", false,
		"calibrate-on-start: measure the real primitives at every batch bucket and select against the measured table; with -costs the table is persisted there and reused on restart")
	calReps := flag.Int("calibrate-reps", 1, "calibration: best-of repetitions per measurement")
	calTopK := flag.Int("calibrate-top", 4, "calibration: measure only the analytic model's k cheapest candidates per layer per bucket")

	maxBatch := flag.Int("max-batch", 8, "flush a minibatch at this many pending requests")
	maxWait := flag.Duration("max-wait", 2*time.Millisecond, "flush a partial minibatch once its oldest request has waited this long")
	queueCap := flag.Int("queue", 0, "admission queue bound; overflow is rejected with 429 (0 = 4×max-batch)")
	inflight := flag.Int("inflight", 1, "concurrent engine dispatches per model")
	flag.Parse()

	// Validate everything up front: model selection and compilation can
	// take minutes per hosted network, so a typo'd model name or a
	// nonsense knob must fail before the registry starts, not after.
	names := strings.Split(*modelList, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	if err := validateModels(names); err != nil {
		log.Fatal(err)
	}
	for _, f := range [...]struct {
		name string
		val  int
		min  int
	}{
		{"-max-batch", *maxBatch, 1},
		{"-inflight", *inflight, 1},
		{"-threads", *threads, 0},
		{"-queue", *queueCap, 0},
		{"-profile-sample", *profileSample, 0},
		{"-calibrate-reps", *calReps, 1},
		{"-calibrate-top", *calTopK, 0},
	} {
		if f.val < f.min {
			log.Fatalf("%s %d: want ≥ %d", f.name, f.val, f.min)
		}
	}
	if *maxWait <= 0 {
		log.Fatalf("-max-wait %v: want a positive duration", *maxWait)
	}

	cfg := serve.Config{
		Threads:       *threads,
		ProfileSample: *profileSample,
		Batch: serve.BatchOptions{
			MaxBatch:    *maxBatch,
			MaxWait:     *maxWait,
			QueueCap:    *queueCap,
			MaxInFlight: *inflight,
		},
	}
	switch {
	case *calibrate:
		// Calibrate-on-start: the registry measures (or, when the file
		// already exists, reloads) the table itself.
		cfg.Calibrate = true
		cfg.TablePath = *costsPath
		cfg.CalibrateReps = *calReps
		cfg.CalibrateTopK = *calTopK
	case *costsPath != "":
		f, err := os.Open(*costsPath)
		if err != nil {
			log.Fatal(err)
		}
		table, err := cost.LoadTable(f)
		f.Close()
		if err != nil {
			log.Fatalf("loading cost table %s: %v", *costsPath, err)
		}
		cfg.Prof = table
	}

	start := time.Now()
	reg, err := serve.NewRegistry(names, cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range reg.Names() {
		m, _ := reg.Get(name)
		log.Printf("loaded %s: %d layers, input %d×%d×%d, pbqp optimal=%v",
			name, m.Net.NumLayers(), m.InC, m.InH, m.InW, m.Plan().Optimal)
	}
	log.Printf("registry ready in %v", time.Since(start).Round(time.Millisecond))

	serve.PublishExpvar(reg)
	if *debugAddr != "" {
		go func() {
			// A nil handler serves http.DefaultServeMux, which carries
			// the net/http/pprof handlers (via the blank import) and
			// expvar's /debug/vars — a separate listener so profiling
			// endpoints never share the serving address.
			log.Printf("debug endpoints (pprof, expvar) on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}
	mux := http.NewServeMux()
	mux.Handle("/", serve.NewServer(reg))
	mux.Handle("GET /debug/vars", expvar.Handler())
	srv := &http.Server{Addr: *addr, Handler: mux}

	// Graceful drain: stop accepting connections, finish in-flight
	// HTTP requests, then drain every model's admitted batches.
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("shutting down: draining in-flight requests")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		reg.Close()
	}()

	log.Printf("serving %v on %s", reg.Names(), *addr)
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
}

// validateModels rejects unknown model names before the registry pays
// for selection and compilation, listing every buildable network.
func validateModels(names []string) error {
	known := append(models.Names(), models.DemoNames()...)
	sort.Strings(known)
	set := make(map[string]bool, len(known))
	for _, n := range known {
		set[n] = true
	}
	for _, n := range names {
		if n == "" {
			return fmt.Errorf("-models: empty model name in list")
		}
		if !set[n] {
			return fmt.Errorf("unknown model %q (have %s)", n, strings.Join(known, ", "))
		}
	}
	return nil
}
