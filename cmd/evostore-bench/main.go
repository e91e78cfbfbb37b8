// Command evostore-bench regenerates the tables behind every figure of the
// paper's evaluation section, plus the ablation studies from DESIGN.md,
// and runs the failure scenarios that assert the storage invariants.
//
// Usage:
//
//	evostore-bench fig4 [-virtual] [-gpus 8,16,...] [-model-bytes N]
//	evostore-bench fig5 [-catalog N] [-queries N] [-workers 1,8,...]
//	evostore-bench fig6|fig7|fig8|fig9|fig10 [-budget N] [-workers N]
//	evostore-bench ablations
//	evostore-bench all
//	evostore-bench faults|repair|rebalance|restart|autobalance|storm|frontdoor|dedup [-smoke] [-seed N] [-replicas R]
//	evostore-bench check [-smoke=false] [-seed N] [-replicas R]
//
// Scaled-down figure defaults finish in seconds; pass the paper's
// parameters (e.g. -catalog 60000 -queries 10000, -budget 1000) for
// full-scale runs. A scenario breaks a deployment in one particular way and
// fails unless its contract and the shared invariant check hold (see
// harness.go); `check` runs them all, at -smoke size unless told otherwise.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/metrics"
	"repro/internal/nas"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	var err error
	switch cmd {
	case "fig4":
		err = runFig4(args)
	case "fig5":
		err = runFig5(args)
	case "fig6":
		err = runFig6(args)
	case "fig7":
		err = runFig7(args)
	case "fig8":
		err = runFig8(args)
	case "fig9":
		err = runFig9(args)
	case "fig10":
		err = runFig10(args)
	case "ablations":
		err = runAblations(args)
	case "zerocost":
		err = runZeroCost(args)
	case "strategies":
		err = runStrategies(args)
	case "check":
		cfg := scenarioFlags(cmd, args, true)
		for _, sc := range scenarios {
			if err = execute(sc, cfg); err != nil {
				break
			}
		}
	case "all":
		for _, sub := range []func([]string) error{
			runFig4, runFig5, runFig6, runFig7, runFig8, runFig9, runFig10,
			runAblations, runZeroCost, runStrategies,
		} {
			if err = sub(nil); err != nil {
				break
			}
		}
	default:
		sc, ok := findScenario(cmd)
		if !ok {
			usage()
			os.Exit(2)
		}
		err = execute(sc, scenarioFlags(cmd, args, false))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "evostore-bench:", err)
		os.Exit(1)
	}
}

func findScenario(name string) (scenario, bool) {
	for _, sc := range scenarios {
		if sc.name == name {
			return sc, true
		}
	}
	return scenario{}, false
}

func usage() { fmt.Fprint(os.Stderr, usageText()) }

func usageText() string {
	var b strings.Builder
	b.WriteString("usage: evostore-bench {fig4|fig5|fig6|fig7|fig8|fig9|fig10|ablations|zerocost|strategies|all} [flags]\n")
	b.WriteString("       evostore-bench {check|<scenario>} [-smoke] [-seed N] [-replicas R]\nscenarios:\n")
	for _, sc := range scenarios {
		fmt.Fprintf(&b, "  %-12s %s\n", sc.name, sc.breaks)
	}
	return b.String()
}

func parseInts(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err == nil {
			out = append(out, n)
		}
	}
	return out
}

func nasConfig(fs *flag.FlagSet) *expr.NASConfig {
	cfg := &expr.NASConfig{Retire: true}
	fs.IntVar(&cfg.Budget, "budget", 1000, "candidates to evaluate")
	fs.IntVar(&cfg.Population, "population", 100, "aged-evolution population size")
	fs.Int64Var(&cfg.Seed, "seed", 1, "random seed")
	return cfg
}

func runFig4(args []string) error {
	fs := flag.NewFlagSet("fig4", flag.ExitOnError)
	virtual := fs.Bool("virtual", true, "virtual-time paper-scale run (false = wall-clock laptop scale)")
	gpus := fs.String("gpus", "", "comma-separated GPU counts")
	modelBytes := fs.Int64("model-bytes", 0, "model size in bytes (default 4 GiB virtual, 16 MiB real)")
	layers := fs.Int("layers", 100, "leaf layers per model")
	fs.Parse(args)

	cfg := expr.Fig4Config{Virtual: *virtual, GPUs: parseInts(*gpus), ModelBytes: *modelBytes, Layers: *layers}
	if !*virtual {
		if cfg.ModelBytes == 0 {
			cfg.ModelBytes = 16 << 20
		}
		if len(cfg.GPUs) == 0 {
			cfg.GPUs = []int{2, 4, 8, 16}
		}
	}
	rows, err := expr.RunFig4(cfg)
	if err != nil {
		return err
	}
	fmt.Println("\n=== Figure 4: incremental storage, aggregate write bandwidth ===")
	tbl := metrics.NewTable("GPUs", "Approach", "Modified%", "Agg GB/s", "s/model")
	for _, r := range rows {
		tbl.Add(r.GPUs, r.Approach, fmt.Sprintf("%.0f%%", r.Fraction*100), r.AggGBps, r.PerGPUSec)
	}
	tbl.Render(os.Stdout)
	return nil
}

func runFig5(args []string) error {
	fs := flag.NewFlagSet("fig5", flag.ExitOnError)
	catalog := fs.Int("catalog", 2000, "architectures in the catalog (paper: 60000)")
	queries := fs.Int("queries", 200, "total LCP queries (paper: 10000)")
	workers := fs.String("workers", "", "comma-separated worker counts")
	providers := fs.Int("providers", 8, "EvoStore providers")
	skipRedis := fs.Int("skip-redis-above", 0, "skip Redis-Queries above this worker count (0 = never)")
	fs.Parse(args)

	rows, err := expr.RunFig5(expr.Fig5Config{
		CatalogSize: *catalog, Queries: *queries,
		Workers: parseInts(*workers), Providers: *providers,
		SkipRedisAbove: *skipRedis,
	})
	if err != nil {
		return err
	}
	fmt.Println("\n=== Figure 5: LCP query processing, strong scaling ===")
	tbl := metrics.NewTable("Workers", "Approach", "Queries/s", "Total s")
	for _, r := range rows {
		tbl.Add(r.Workers, r.Approach, r.QueriesPerS, r.TotalSec)
	}
	tbl.Render(os.Stdout)
	return nil
}

func runFig6(args []string) error {
	fs := flag.NewFlagSet("fig6", flag.ExitOnError)
	cfg := nasConfig(fs)
	workers := fs.Int("workers", 256, "worker count")
	bins := fs.Int("bins", 10, "time bins for the accuracy series")
	fs.Parse(args)

	points, summaries, err := expr.RunFig6(*cfg, *workers)
	if err != nil {
		return err
	}
	fmt.Printf("\n=== Figure 6: candidate accuracy over time (%d workers) ===\n", *workers)
	sum := metrics.NewTable("Approach", "Makespan s", "Mean acc", "Best acc", "First>0.80 s")
	for _, s := range summaries {
		first := "never"
		if s.FirstAbove8 >= 0 {
			first = fmt.Sprintf("%.1f", s.FirstAbove8)
		}
		sum.Add(s.Approach, s.Makespan, s.MeanAcc, s.BestAcc, first)
	}
	sum.Render(os.Stdout)

	// Binned series: max accuracy per time bin per approach.
	fmt.Println("\nAccuracy series (per-bin max):")
	byApproach := map[string][]expr.Fig6Point{}
	for _, p := range points {
		byApproach[p.Approach] = append(byApproach[p.Approach], p)
	}
	tbl := metrics.NewTable(append([]string{"Approach"}, binHeaders(*bins)...)...)
	for _, approach := range []string{"DH-NoTransfer", "EvoStore"} {
		ps := byApproach[approach]
		var makespan float64
		for _, p := range ps {
			if p.Time > makespan {
				makespan = p.Time
			}
		}
		maxes := make([]float64, *bins)
		for _, p := range ps {
			b := int(p.Time / makespan * float64(*bins))
			if b >= *bins {
				b = *bins - 1
			}
			if p.Accuracy > maxes[b] {
				maxes[b] = p.Accuracy
			}
		}
		cells := make([]any, 0, *bins+1)
		cells = append(cells, approach)
		for _, m := range maxes {
			cells = append(cells, m)
		}
		tbl.Add(cells...)
	}
	tbl.Render(os.Stdout)
	return nil
}

func binHeaders(bins int) []string {
	out := make([]string, bins)
	for i := range out {
		out[i] = fmt.Sprintf("%d%%", (i+1)*100/bins)
	}
	return out
}

func runFig7(args []string) error {
	fs := flag.NewFlagSet("fig7", flag.ExitOnError)
	cfg := nasConfig(fs)
	scales := fs.String("scales", "128,256", "comma-separated worker counts")
	fs.Parse(args)

	rows, err := expr.RunFig7(*cfg, nil, parseInts(*scales))
	if err != nil {
		return err
	}
	fmt.Println("\n=== Figure 7: time to target accuracy ===")
	tbl := metrics.NewTable("Approach", "Workers", "Target", "Seconds")
	for _, r := range rows {
		sec := "(*) never"
		if r.Reached {
			sec = fmt.Sprintf("%.1f", r.Seconds)
		}
		tbl.Add(r.Approach, r.Workers, r.Target, sec)
	}
	tbl.Render(os.Stdout)
	return nil
}

func runFig8(args []string) error {
	fs := flag.NewFlagSet("fig8", flag.ExitOnError)
	cfg := nasConfig(fs)
	scales := fs.String("scales", "128,256", "comma-separated worker counts")
	fs.Parse(args)

	rows, err := expr.RunFig8(*cfg, parseInts(*scales))
	if err != nil {
		return err
	}
	fmt.Println("\n=== Figure 8: end-to-end NAS runtime ===")
	tbl := metrics.NewTable("Approach", "Workers", "Makespan s", "Repo overhead")
	for _, r := range rows {
		tbl.Add(r.Approach, r.Workers, r.Makespan, fmt.Sprintf("%.2f%%", r.RepoOverhead*100))
	}
	tbl.Render(os.Stdout)
	return nil
}

func runFig9(args []string) error {
	fs := flag.NewFlagSet("fig9", flag.ExitOnError)
	cfg := nasConfig(fs)
	workers := fs.Int("workers", 128, "worker count")
	plot := fs.Bool("plot", true, "render ASCII timelines")
	svgPrefix := fs.String("svg", "", "write <prefix>-<approach>.svg timeline plots")
	fs.Parse(args)

	if *svgPrefix != "" {
		for _, mode := range []nas.StorageMode{nas.ModeNoTransfer, nas.ModeEvoStore, nas.ModeHDF5PFS} {
			path := fmt.Sprintf("%s-%s.svg", *svgPrefix, strings.ReplaceAll(mode.String(), "+", ""))
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := expr.RunFig9SVG(*cfg, mode, *workers, f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Println("wrote", path)
		}
	}
	var out *os.File
	if *plot {
		out = os.Stdout
	}
	fmt.Printf("\n=== Figure 9: task timelines (%d workers) ===\n", *workers)
	rows, err := expr.RunFig9(*cfg, *workers, out)
	if err != nil {
		return err
	}
	tbl := metrics.NewTable("Approach", "Tasks", "Mean task s", "Stddev s", "Wave score", "Makespan s")
	for _, r := range rows {
		tbl.Add(r.Approach, r.Tasks, r.MeanTaskSec, r.StdTaskSec, r.WaveScore, r.MakespanSec)
	}
	tbl.Render(os.Stdout)
	return nil
}

func runFig10(args []string) error {
	fs := flag.NewFlagSet("fig10", flag.ExitOnError)
	cfg := nasConfig(fs)
	workers := fs.Int("workers", 128, "worker count")
	fs.Parse(args)

	rows, err := expr.RunFig10(*cfg, *workers)
	if err != nil {
		return err
	}
	fmt.Println("\n=== Figure 10: storage space overhead ===")
	tbl := metrics.NewTable("Approach", "Retire", "Final", "Peak")
	for _, r := range rows {
		retire := "No Retire"
		if r.Retire {
			retire = "With Retire"
		}
		tbl.Add(r.Approach, retire, metrics.HumanBytes(r.FinalBytes), metrics.HumanBytes(r.PeakBytes))
	}
	tbl.Render(os.Stdout)
	return nil
}

func runZeroCost(args []string) error {
	fs := flag.NewFlagSet("zerocost", flag.ExitOnError)
	cfg := nasConfig(fs)
	workers := fs.Int("workers", 128, "worker count")
	fs.Parse(args)

	rows, err := expr.RunZeroCost(*cfg, *workers, nil)
	if err != nil {
		return err
	}
	fmt.Println("\n=== Extension (§6): zero-cost proxies — I/O share vs training effort ===")
	tbl := metrics.NewTable("Approach", "Epoch fraction", "Makespan s", "I/O share", "Best acc")
	for _, r := range rows {
		tbl.Add(r.Approach, r.EpochFraction, r.Makespan, fmt.Sprintf("%.2f%%", r.IOFraction*100), r.BestAcc)
	}
	tbl.Render(os.Stdout)
	return nil
}

func runStrategies(args []string) error {
	fs := flag.NewFlagSet("strategies", flag.ExitOnError)
	cfg := nasConfig(fs)
	workers := fs.Int("workers", 128, "worker count")
	fs.Parse(args)

	rows, err := expr.RunStrategies(*cfg, *workers)
	if err != nil {
		return err
	}
	fmt.Println("\n=== Search strategies (§2): aged evolution vs random sampling ===")
	tbl := metrics.NewTable("Strategy", "Best acc", "Mean acc", "Makespan s")
	for _, r := range rows {
		tbl.Add(r.Strategy, r.BestAcc, r.MeanAcc, r.Makespan)
	}
	tbl.Render(os.Stdout)
	return nil
}

func runAblations(args []string) error {
	fs := flag.NewFlagSet("ablations", flag.ExitOnError)
	fs.Parse(args)

	fmt.Println("\n=== Ablation: owner maps vs chain reconstruction ===")
	omRows, err := expr.RunAblationOwnerMap(nil, 0, 0)
	if err != nil {
		return err
	}
	tbl := metrics.NewTable("Chain depth", "Owner map s", "Chain walk s", "Speedup")
	for _, r := range omRows {
		tbl.Add(r.Depth, r.OwnerMapSec, r.ChainWalkSec, fmt.Sprintf("%.1fx", r.Speedup))
	}
	tbl.Render(os.Stdout)

	fmt.Println("\n=== Ablation: leaf-level vs cell-level dedup granularity ===")
	gr, err := expr.RunAblationGranularity(0, 1)
	if err != nil {
		return err
	}
	tbl = metrics.NewTable("Mutation pairs", "Leaf LCP bytes", "Coarse LCP bytes", "Gain")
	tbl.Add(gr.Pairs, metrics.HumanBytes(gr.LeafLCPBytes), metrics.HumanBytes(gr.CoarseLCPBytes),
		fmt.Sprintf("%.2fx", gr.BytesGain))
	tbl.Render(os.Stdout)

	fmt.Println("\n=== Ablation: consolidated vs per-tensor reads ===")
	cons, err := expr.RunAblationConsolidation(0, 0)
	if err != nil {
		return err
	}
	tbl = metrics.NewTable("Layers", "Grouped s", "Per-vertex s", "Speedup")
	tbl.Add(cons.Layers, cons.GroupedSec, cons.PerVertexSec, fmt.Sprintf("%.1fx", cons.Speedup))
	tbl.Render(os.Stdout)

	fmt.Println("\n=== Ablation: collective vs client-side iterative queries ===")
	col, err := expr.RunAblationCollective(0, 1)
	if err != nil {
		return err
	}
	tbl = metrics.NewTable("Catalog", "Collective s", "Iterative s", "Speedup")
	tbl.Add(col.Catalog, col.CollectiveSec, col.IterativeSec, fmt.Sprintf("%.1fx", col.Speedup))
	tbl.Render(os.Stdout)
	return nil
}
