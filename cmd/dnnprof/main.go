// Command dnnprof materializes the paper's §3.1 profiling stage as a
// reproducible artifact: for each convolution layer of a network, the
// top primitive candidates with their modeled (or measured) execution
// times — per minibatch size — and, with -calibrate, a serialized cost
// table measured on this machine that the selector, the benchmark
// harness and the serving registry can all reuse.
//
// Usage:
//
//	dnnprof -net alexnet -platform intel -threads 4 -top 5
//	dnnprof -net googlenet -platform arm -measure
//	dnnprof -net googlenet -batch 1,8                      # per-batch candidate tables
//	dnnprof -net googlenet -calibrate -batch 1,2,4,8 -calibrate-top 4 -save prof.json
//	dnnprof -net googlenet -load prof.json -select -batch 1,8
//
// -calibrate wall-clocks the real primitives (batched entry points
// included) at every -batch size, pruning each layer's candidates to
// the analytic model's -calibrate-top cheapest per batch; -save writes
// the table as JSON and -load reuses one instead of profiling. -select
// runs one PBQP solve per -batch size against the active profiler,
// compiles each bucket's plan, and prints the per-layer selections with
// the primitive switches relative to the batch-1 plan.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn"
	"pbqpdnn/internal/dnn/models"
	"pbqpdnn/internal/program"
	"pbqpdnn/internal/selector"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dnnprof: ")
	netName := flag.String("net", "alexnet", "network: "+strings.Join(append(models.Names(), models.DemoNames()...), ", "))
	platform := flag.String("platform", "intel", "platform: intel or arm (model profiler)")
	threads := flag.Int("threads", 1, "thread count")
	top := flag.Int("top", 5, "candidates to print per layer")
	batchList := flag.String("batch", "1", "comma-separated minibatch sizes to profile/select at")
	measure := flag.Bool("measure", false, "wall-clock measure the real Go primitives instead of the machine model (slow)")
	calibrate := flag.Bool("calibrate", false, "build a measured cost table over the network at every -batch size")
	calTopK := flag.Int("calibrate-top", 0, "calibration: measure only the analytic model's k cheapest candidates per layer per batch (0 = all)")
	reps := flag.Int("reps", 3, "measurement repetitions (best-of) for -measure/-calibrate")
	savePath := flag.String("save", "", "write the calibrated table as JSON (requires -calibrate)")
	loadPath := flag.String("load", "", "load a serialized cost table and profile/select from it instead of profiling")
	doSelect := flag.Bool("select", false, "run one PBQP solve per -batch size, compile each bucket's plan, and print the selections")
	flag.Parse()

	batches, err := parseBatches(*batchList)
	if err != nil {
		log.Fatal(err)
	}
	if *loadPath != "" && *calibrate {
		log.Fatal("-load and -calibrate are mutually exclusive (the loaded table replaces profiling)")
	}
	if *savePath != "" && !*calibrate {
		log.Fatal("-save requires -calibrate (there is no table to save)")
	}
	model, err := platformModel(*platform)
	if err != nil {
		log.Fatal(err)
	}
	g, err := models.Build(*netName)
	if err != nil {
		log.Fatal(err)
	}

	var prof cost.Profiler
	switch {
	case *loadPath != "":
		f, err := os.Open(*loadPath)
		if err != nil {
			log.Fatal(err)
		}
		table, err := cost.LoadTable(f)
		f.Close()
		if err != nil {
			log.Fatalf("loading cost table %s: %v", *loadPath, err)
		}
		prof = table
	case *calibrate:
		tab := cost.NewTable("calibrated-"+*platform, *threads)
		meas := &cost.Measure{Reps: *reps, Threads: *threads}
		tab.AddNetTopK(g, conv.Library(), model, meas, batches, *calTopK)
		fmt.Printf("calibrated %s at batches %v: %d measured entries\n", *netName, batches, tab.NumEntries())
		if *savePath != "" {
			f, err := os.Create(*savePath)
			if err != nil {
				log.Fatal(err)
			}
			if err := tab.Save(f); err != nil {
				log.Fatal(err)
			}
			f.Close()
			fmt.Printf("saved table to %s\n", *savePath)
		}
		prof = tab
	case *measure:
		prof = &cost.Measure{Reps: *reps, Threads: *threads}
	default:
		prof = model
	}
	if *doSelect {
		if err := selectBatches(g, prof, *threads, batches); err != nil {
			log.Fatal(err)
		}
		return
	}
	printCandidates(g, prof, *threads, *top, batches)
}

// platformModel maps -platform to its analytic machine model,
// rejecting unknown values instead of silently defaulting to Intel.
func platformModel(platform string) (*cost.Model, error) {
	switch platform {
	case "intel":
		return cost.NewModel(cost.IntelHaswell), nil
	case "arm":
		return cost.NewModel(cost.CortexA57), nil
	}
	return nil, fmt.Errorf("unknown platform %q (have intel, arm)", platform)
}

// printCandidates renders each conv layer's top candidates, one table
// per batch size.
func printCandidates(g *dnn.Graph, prof cost.Profiler, threads, top int, batches []int) {
	lib := conv.Library()
	for _, b := range batches {
		if len(batches) > 1 || b > 1 {
			fmt.Printf("== batch %d (ms for the whole batch) ==\n", b)
		}
		for _, id := range g.ConvLayers() {
			l := g.Layers[id]
			type cand struct {
				name string
				ms   float64
			}
			var cands []cand
			for _, p := range lib {
				if !p.Supports(l.Conv) {
					continue
				}
				c := prof.Primitive(p, l.Conv, threads, b)
				if math.IsInf(c, 1) { // pruned out of a top-K table
					continue
				}
				cands = append(cands, cand{p.Name, c * 1e3})
			}
			sort.Slice(cands, func(i, j int) bool { return cands[i].ms < cands[j].ms })
			fmt.Printf("%-26s %s  (%d candidates)\n", l.Name, l.Conv, len(cands))
			for i, c := range cands {
				if i >= top {
					break
				}
				fmt.Printf("    %-28s %10.3f ms\n", c.name, c.ms)
			}
		}
	}
}

// selectBatches runs one PBQP solve per batch size against the active
// profiler, compiles each bucket's plan (validating it end to end), and
// prints the per-layer selections with switches relative to batch 1.
func selectBatches(g *dnn.Graph, prof cost.Profiler, threads int, batches []int) error {
	var base *selector.Plan
	for _, b := range batches {
		plan, err := selector.SelectBatch(g, b, selector.Options{Prof: prof, Threads: threads})
		if err != nil {
			return fmt.Errorf("selecting batch %d: %w", b, err)
		}
		if _, err := program.CompileBatch(plan, b); err != nil {
			return fmt.Errorf("compiling batch %d: %w", b, err)
		}
		if base == nil {
			base = plan
		}
		switches := 0
		for _, id := range g.ConvLayers() {
			if plan.Primitives[id].Name != base.Primitives[id].Name {
				switches++
			}
		}
		fmt.Printf("== batch %d: predicted %.3f ms/image (%.3f ms/batch), optimal=%v, %d primitive switch(es) vs batch %d ==\n",
			b, plan.CostPerImage()*1e3, plan.TotalCost()*1e3, plan.Optimal, switches, base.Batch)
		for _, id := range g.ConvLayers() {
			l := g.Layers[id]
			mark := " "
			note := ""
			if plan.Primitives[id].Name != base.Primitives[id].Name {
				mark = "*"
				note = fmt.Sprintf("  (batch-%d: %s)", base.Batch, base.Primitives[id].Name)
			}
			fmt.Printf("  %s %-26s %-28s%s\n", mark, l.Name, plan.Primitives[id].Name, note)
		}
	}
	return nil
}

// parseBatches parses the -batch flag's comma-separated size list.
func parseBatches(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-batch: %q is not a positive integer", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-batch: empty size list")
	}
	return out, nil
}
