// Command benchmark is the repository's one performance instrument:
// calibrate → select → compile → run on four workloads, reporting the
// end-to-end and per-layer metrics BENCHMARK.json names. Every number
// is taken from outside the program, by timing calls into its public
// functions. See README.md in this directory.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// spec describes one workload.
type spec struct {
	name string
	net  string
	// batch is the RunBatch size of a closed-loop model workload; 0
	// marks the open-loop serving workload, which has the two rates.
	batch                  int
	steadyRPS, overloadRPS float64
}

// minCalls is the least number of timed calls of a model workload,
// however short -seconds is.
const minCalls = 8

var workloads = []spec{
	{name: "googlenet_b1", net: "googlenet", batch: 1},
	{name: "resnet18_b8", net: "resnet-18", batch: 8},
	{name: "alexnet_b8", net: "alexnet", batch: 8},
	{name: "serve_smallnet", net: "smallnet", steadyRPS: steadyRPS, overloadRPS: overloadRPS},
}

// smokeWorkloads run every phase of both workload kinds on micronet in
// a few seconds; their numbers mean nothing.
var smokeWorkloads = []spec{
	{name: "smoke_model", net: "micronet", batch: 2},
	{name: "smoke_serve", net: "micronet", steadyRPS: 300, overloadRPS: 20000},
}

// runOpts are the arguments of one workload run.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	threads int
	outDir  string
}

func (o runOpts) tracePath(workload string) string {
	return filepath.Join(o.outDir, "trace_"+workload+".json")
}

func (o runOpts) resultPath(workload string) string {
	suffix := ""
	if o.trace {
		suffix = "_traced"
	}
	return filepath.Join(o.outDir, "result_"+workload+suffix+".json")
}

func (sp spec) run(o runOpts) (*Record, error) {
	if sp.batch == 0 {
		return runServe(sp, o)
	}
	return runModel(sp, o)
}

// runOne runs a workload in this process, prints its table and writes
// its result file.
func runOne(c *Contract, sp spec, o runOpts) (*Record, error) {
	rec, err := sp.run(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	if err := rec.check(c); err != nil {
		return nil, err
	}
	rec.print(os.Stdout, c)
	if o.trace {
		fmt.Printf("  trace written to %s\n", o.tracePath(sp.name))
	}
	if err := writeJSON(o.resultPath(sp.name), rec); err != nil {
		return nil, err
	}
	if rec.Failed > 0 || !rec.Correct {
		return rec, fmt.Errorf("%s: %d of %d operations failed (correct=%v)", sp.name, rec.Failed, rec.Attempted, rec.Correct)
	}
	return rec, nil
}

// runAll runs every workload of the contract, untraced then traced,
// each in a fresh child process so no workload inherits another's heap,
// arena or warmed caches, and gathers the children's result files.
func runAll(c *Contract, o runOpts, resultsName string) (*ResultSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rs := &ResultSet{Env: environment(o.threads)}
	var failed error
	for _, w := range c.Workloads {
		for _, traced := range []bool{false, true} {
			o.trace = traced
			traceArg := "0"
			if traced {
				traceArg = "1"
			}
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", traceArg, "-out", o.outDir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				// A child that measured but saw failed operations still
				// wrote its record; keep going so every row prints.
				failed = errors.Join(failed, fmt.Errorf("%s: %w", w.Name, err))
			}
			var rec Record
			if err := readJSON(o.resultPath(w.Name), &rec); err != nil {
				return nil, errors.Join(failed, err)
			}
			rs.Records = append(rs.Records, &rec)
		}
	}
	if err := writeJSON(filepath.Join(o.outDir, resultsName), rs); err != nil {
		return nil, err
	}
	return rs, failed
}

// selfcheck runs the full set twice back to back and holds the two to
// the contract's bounds: two runs of the same code must agree.
func selfcheck(c *Contract, o runOpts) error {
	first, err := runAll(c, o, "results_selfcheck_1.json")
	if err != nil {
		return err
	}
	second, err := runAll(c, o, "results_selfcheck_2.json")
	if err != nil {
		return err
	}
	vs, err := compare(c, first, second, true)
	if err != nil {
		return err
	}
	if !printVerdicts(os.Stdout, vs, planNote(first, second)) {
		return errors.New("selfcheck: two runs of the same code disagree by more than a bound")
	}
	return nil
}

func findSpec(list []spec, name string) (spec, bool) {
	for _, sp := range list {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// smoke runs both smoke workloads, untraced and traced, in-process.
func smoke(c *Contract, o runOpts) error {
	o.seconds = 0.6
	for _, sp := range smokeWorkloads {
		for _, traced := range []bool{false, true} {
			o.trace = traced
			if _, err := runOne(c, sp, o); err != nil {
				return err
			}
		}
	}
	return nil
}

func main() {
	workload := flag.String("workload", "", "run this one workload in-process and end with the result line (default: all, each in a child process)")
	seed := flag.Int64("seed", 1, "seed of input tensors, request bodies and arrival jitter")
	seconds := flag.Float64("seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a trace file instead of end-to-end metrics")
	doSelfcheck := flag.Bool("selfcheck", false, "run the full set twice and compare the two against the bounds")
	doSmoke := flag.Bool("smoke", false, "run every phase on micronet in a few seconds")
	doCompare := flag.Bool("compare", false, "compare two results.json files given as arguments (second against first)")
	doCapacity := flag.Bool("capacity", false, "print the closed-loop capacity the serving rates are fixed against")
	root := flag.String("root", ".", "directory holding BENCHMARK.json")
	out := flag.String("out", "", "directory for result and trace files (default: <root>/benchmark/out)")
	flag.Parse()

	// One thread budget for everything: GOMAXPROCS, the calibration
	// profiler, selection and every engine.
	threads := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(threads)

	c := &Contract{}
	if err := readJSON(filepath.Join(*root, "BENCHMARK.json"), c); err != nil {
		fail(err)
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, threads: threads, outDir: *out}
	if o.seconds <= 0 {
		o.seconds = float64(c.RunSeconds)
	}
	if o.outDir == "" {
		o.outDir = filepath.Join(*root, "benchmark", "out")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fail(err)
	}

	var err error
	switch {
	case *doCompare:
		err = compareFiles(c, flag.Args())
	case *doCapacity:
		err = printCapacity()
	case *doSmoke:
		err = smoke(c, o)
	case *doSelfcheck:
		err = selfcheck(c, o)
	case *workload != "":
		sp, ok := findSpec(workloads, *workload)
		if !ok {
			fail(fmt.Errorf("unknown workload %q", *workload))
		}
		var rec *Record
		if rec, err = runOne(c, sp, o); rec != nil {
			fmt.Println(rec.resultLine())
		}
	default:
		_, err = runAll(c, o, "results.json")
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func compareFiles(c *Contract, files []string) error {
	if len(files) != 2 {
		return errors.New("-compare takes two results.json files")
	}
	a, b := &ResultSet{}, &ResultSet{}
	if err := errors.Join(readJSON(files[0], a), readJSON(files[1], b)); err != nil {
		return err
	}
	vs, err := compare(c, a, b, false)
	if err != nil {
		return err
	}
	if !printVerdicts(os.Stdout, vs, planNote(a, b)) {
		return errors.New("compare: the second set is worse than the first by more than a bound")
	}
	return nil
}

func printCapacity() error {
	sp, _ := findSpec(workloads, "serve_smallnet")
	rps, err := capacity(sp.net)
	if err != nil {
		return err
	}
	fmt.Printf("closed-loop capacity of ServeHTTP on %s, 16 clients: %.0f req/s (steady %.0f = %.2fx, overload %.0f = %.2fx)\n",
		sp.net, rps, sp.steadyRPS, sp.steadyRPS/rps, sp.overloadRPS, sp.overloadRPS/rps)
	return nil
}
