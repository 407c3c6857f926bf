// Command dnnbench regenerates the paper's evaluation artifacts from
// the cost models: every whole-network figure, the absolute-time
// tables, the qualitative family-traits table, the worked PBQP
// example, the selection maps, the §5.8 trend checks and the §8
// sparsity and minibatch extensions. Nothing it prints is a wall-clock
// measurement; the engine is timed by the benchmark module
// (benchmark/run.sh) alone.
//
// Usage:
//
//	dnnbench -exp all
//	dnnbench -exp fig6
//	dnnbench -exp table3
//	dnnbench -exp trends
//	dnnbench -exp minibatch -threads 8 -batch 1,4,32
//	dnnbench -dump-program -net googlenet -strategy pbqp
//
// The -threads flag is the selection thread budget the minibatch
// experiment and -dump-program price plans under; -batch lists the
// minibatch experiment's batch sizes. -dump-program compiles the
// chosen network's plan once and prints the executable Program IR —
// the instruction stream the engine runs, with its static memory plan
// and stats (instructions, slots, peak resident bytes).
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn/models"
	"pbqpdnn/internal/experiments"
	"pbqpdnn/internal/program"
	"pbqpdnn/internal/selector"
	"pbqpdnn/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dnnbench: ")
	exp := flag.String("exp", "all",
		"experiment: table1, table2, table3, fig2, fig4, fig5, fig6, fig7a, fig7b, solver, sparsity, minibatch, trends, all")
	threads := flag.Int("threads", 4, "selection thread budget for -exp minibatch and -dump-program")
	batch := flag.String("batch", "1,2,4,8,16", "comma-separated minibatch sizes for -exp minibatch")
	dump := flag.Bool("dump-program", false, "compile -net under -strategy and print the Program IR (instructions + memory plan), then exit")
	netName := flag.String("net", "googlenet", "network for -dump-program (alexnet, vgg-b/c/d/e, googlenet, resnet-18, smallnet, micronet)")
	strategy := flag.String("strategy", "pbqp",
		"selection strategy for -dump-program: pbqp, baseline, local-opt, no-edge-cost, mkldnn, armcl, caffe, direct, im2, kn2, winograd, fft")
	flag.Parse()

	if *dump {
		if err := validateNet(*netName); err != nil {
			log.Fatal(err)
		}
		if err := dumpProgram(*netName, *strategy, *threads); err != nil {
			log.Fatal(err)
		}
		return
	}

	batches, err := parseBatches(*batch)
	if err != nil {
		log.Fatal(err)
	}
	if *threads < 1 {
		log.Fatalf("-threads must be ≥ 1, got %d", *threads)
	}

	runners := map[string]func() error{
		"table1": func() error {
			fmt.Print(experiments.FormatTable1(experiments.Table1(cost.IntelHaswell)))
			return nil
		},
		"table2": func() error {
			rows, err := experiments.Table2()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatTable("Table 2: single inference on Intel Core i5-4570 (model ms)", rows))
			return nil
		},
		"table3": func() error {
			rows, err := experiments.Table3()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatTable("Table 3: single inference on ARM Cortex-A57 (model ms)", rows))
			return nil
		},
		"fig2": func() error {
			r := experiments.Figure2()
			fmt.Println("== Figure 2: worked PBQP example ==")
			fmt.Printf("node costs only: selection %v, total %.0f\n", r.NodeOnlySelection, r.NodeOnlyCost)
			fmt.Printf("with edge costs: selection %v, total %.0f\n", r.FullSelection, r.FullCost)
			return nil
		},
		"fig4": func() error {
			intel, arm, err := experiments.Figure4()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFigure4(intel, arm))
			return nil
		},
		"fig5":  figure("Figure 5: single-threaded, Intel Haswell", experiments.Figure5),
		"fig6":  figure("Figure 6: multithreaded, Intel Haswell", experiments.Figure6),
		"fig7a": figure("Figure 7a: single-threaded, ARM Cortex-A57", experiments.Figure7a),
		"fig7b": figure("Figure 7b: multithreaded, ARM Cortex-A57", experiments.Figure7b),
		"solver": func() error {
			ov, err := experiments.SolverOverheads(cost.IntelHaswell, 4)
			if err != nil {
				return err
			}
			fmt.Println("== §5.4 solver overheads ==")
			for n, r := range ov {
				fmt.Printf("  %-10s solve %.2f ms, optimal=%v\n", n, r.SolveMS, r.Optimal)
			}
			return nil
		},
		"sparsity": func() error {
			pts, err := experiments.SparsitySweep()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatSparsitySweep(pts))
			return nil
		},
		"minibatch": func() error {
			pts, err := experiments.MinibatchSweepOpts(*threads, batches)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatMinibatchSweep(pts))
			return nil
		},
		"trends": func() error {
			ts, err := experiments.CheckTrends()
			if err != nil {
				return err
			}
			fmt.Println("== §5.6–§5.8 trend checks ==")
			for _, t := range ts {
				status := "PASS"
				if !t.OK {
					status = "FAIL"
				}
				fmt.Printf("  [%s] %-38s %s\n", status, t.Name, t.Note)
			}
			return nil
		},
	}
	order := []string{"table1", "fig2", "fig4", "fig5", "fig6", "fig7a", "fig7b",
		"table2", "table3", "solver", "sparsity", "minibatch", "trends"}

	if *exp == "all" {
		for _, name := range order {
			if err := runners[name](); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			fmt.Println()
		}
		return
	}
	run, ok := runners[*exp]
	if !ok {
		log.Fatalf("unknown experiment %q (have %v, all)", *exp, order)
	}
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// dumpProgram compiles one network's plan under the chosen strategy
// and prints the executable Program IR with its static memory plan.
func dumpProgram(netName, strategy string, threads int) error {
	g, err := models.Build(netName)
	if err != nil {
		return err
	}
	opts := selector.Options{Prof: cost.NewModel(cost.IntelHaswell), Threads: threads}
	builders := map[string]func() (*selector.Plan, error){
		"pbqp":         func() (*selector.Plan, error) { return selector.Select(g, opts) },
		"baseline":     func() (*selector.Plan, error) { return selector.Baseline(g, opts) },
		"local-opt":    func() (*selector.Plan, error) { return selector.LocalOptimal(g, tensor.CHW, opts) },
		"no-edge-cost": func() (*selector.Plan, error) { return selector.NoEdgeCost(g, opts) },
		"mkldnn":       func() (*selector.Plan, error) { return selector.MKLDNNProxy(g, opts) },
		"armcl":        func() (*selector.Plan, error) { return selector.ARMCLProxy(g, opts) },
		"caffe":        func() (*selector.Plan, error) { return selector.CaffeProxy(g, opts) },
	}
	families := map[string]conv.Family{
		"direct": conv.FamilyDirect, "im2": conv.FamilyIm2, "kn2": conv.FamilyKn2,
		"winograd": conv.FamilyWinograd, "fft": conv.FamilyFFT,
	}
	build, ok := builders[strategy]
	if !ok {
		fam, okf := families[strategy]
		if !okf {
			names := make([]string, 0, len(builders)+len(families))
			for n := range builders {
				names = append(names, n)
			}
			for n := range families {
				names = append(names, n)
			}
			sort.Strings(names)
			return fmt.Errorf("unknown strategy %q (have %s)", strategy, strings.Join(names, ", "))
		}
		build = func() (*selector.Plan, error) { return selector.FamilyBest(g, fam, opts) }
	}
	plan, err := build()
	if err != nil {
		return err
	}
	prog, err := program.CompileBatch(plan, 1)
	if err != nil {
		return err
	}
	fmt.Print(prog.Source())
	return nil
}

// validateNet rejects unknown -net values up front, listing every
// buildable network.
func validateNet(name string) error {
	known := append(models.Names(), models.DemoNames()...)
	for _, n := range known {
		if n == name {
			return nil
		}
	}
	return fmt.Errorf("unknown -net %q (have %s)", name, strings.Join(known, ", "))
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

func figure(title string, gen func() ([]*experiments.NetworkResult, error)) func() error {
	return func() error {
		nrs, err := gen()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFigure(title, nrs))
		return nil
	}
}
