// Command bench is the repository's tracked benchmark: four workloads over
// a durable, replicated TCP deployment assembled in this process and driven
// through core.Repository only. See README.md in this directory.
//
//	go run ./bench                      every workload, untraced then traced; one JSON document
//	go run ./bench -workload derive -seed 7 -seconds 15 -trace 0
//	                                    one run; the last line of output is the result object
//	                                    BENCHMARK.json's contract asks for
//	go run ./bench -repeat 5            five untraced sets; median, quartiles and spread per metric
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// setupRepeats is how often set-up runs in one run; setup_s is the median.
const setupRepeats = 3

// bounds is the share of the parent's median by which each gated metric may
// get worse. BENCHMARK.json carries the same numbers (a test compares them);
// README.md records the spreads they were fixed from.
var bounds = map[string]float64{
	"ops_s":     0.25,
	"op_p50_ms": 0.25,
	"space_amp": 0.10,
	"setup_s":   0.25,
}

// document is the one result schema: where and how the run was made, then
// every run of every workload.
type document struct {
	Stamp   stamp     `json:"stamp"`
	Results []*result `json:"results"`
	// Repeat summarises the end-to-end metrics over -repeat sets.
	Repeat map[string]map[string]repeatStat `json:"repeat,omitempty"`
}

type repeatStat struct {
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3 − q1) ÷ median
}

type stamp struct {
	Commit      string  `json:"commit"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"nproc"`
	CPUModel    string  `json:"cpu_model"`
	Kernel      string  `json:"kernel"`
	DataFS      string  `json:"data_fs"`
	Seed        int64   `json:"seed"`
	WindowS     float64 `json:"window_s"`
	TraceS      float64 `json:"trace_window_s"`
	SetupRuns   int     `json:"setup_runs"`
	Deployment  string  `json:"deployment"`
	FlushPolicy string  `json:"flush_policy"`
}

type workloadFlag []string

func (w *workloadFlag) String() string     { return strings.Join(*w, ",") }
func (w *workloadFlag) Set(s string) error { *w = append(*w, s); return nil }

// options are the command's flags. None of them changes the system under
// test.
type options struct {
	workloads    workloadFlag
	seed         int64
	seconds      float64
	traceSeconds float64
	trace        int
	traceOut     string
	out          string
	data         string
	repeat       int
}

func main() {
	var o options
	flag.Var(&o.workloads, "workload", "run only this workload (repeatable; default all four)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured window per workload, tracing off")
	flag.Float64Var(&o.traceSeconds, "trace-seconds", 10, "measured window of the traced run when -trace is not given")
	flag.IntVar(&o.trace, "trace", -1, "0: untraced run only; 1: traced run only, window -seconds; default: both")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans to this file as Chrome trace-event JSON (one workload)")
	flag.StringVar(&o.out, "out", "", "also write the result document to this file")
	flag.StringVar(&o.data, "data", "", "directory for the providers' stores (default: a fresh one under .bench_build, removed on exit)")
	flag.IntVar(&o.repeat, "repeat", 1, "run this many untraced sets and summarise each end-to-end metric")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	names := workloadNames
	if len(o.workloads) > 0 {
		names = o.workloads
	}
	if o.traceOut != "" && len(names) != 1 {
		return fmt.Errorf("-trace-out takes the spans of one workload: give one -workload")
	}
	dataRoot, cleanup, err := dataDir(o.data)
	if err != nil {
		return err
	}
	defer cleanup()

	doc := &document{Stamp: newStamp(dataRoot, o)}
	ctx := context.Background()
	untraced := runConfig{seed: o.seed, window: secs(o.seconds), setups: setupRepeats, dataRoot: dataRoot, sc: fullScale}
	// setup_s is an untraced metric, so a traced run sets up once.
	traced := runConfig{seed: o.seed, window: secs(o.traceSeconds), traced: true, setups: 1, dataRoot: dataRoot, sc: fullScale, traceOut: o.traceOut}
	if o.trace == 1 {
		traced.window = secs(o.seconds)
	}
	var cfgs []runConfig
	if o.trace != 1 {
		cfgs = append(cfgs, untraced)
	}
	if o.trace != 0 && o.repeat == 1 {
		cfgs = append(cfgs, traced)
	}
	for range o.repeat {
		for _, name := range names {
			for _, cfg := range cfgs {
				res, err := runWorkload(ctx, name, cfg)
				if err != nil {
					return err
				}
				doc.Results = append(doc.Results, res)
			}
		}
	}
	addTraceOverhead(doc.Results)
	if o.repeat > 1 {
		doc.Repeat = summarise(doc.Results)
	}

	printTables(doc)
	pretty, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := os.WriteFile(o.out, append(pretty, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(doc.Results) == 1 && o.trace >= 0 {
		// The contract's result object, alone on the last line.
		line, err := json.Marshal(contractLine(doc.Results[0]))
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
	} else {
		fmt.Printf("%s\n", pretty)
	}
	for _, r := range doc.Results {
		if !r.Correct {
			return fmt.Errorf("%s: verification failed: %v", r.Workload, r.FirstErrors)
		}
	}
	return nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// dataDir returns the directory the deployments are made under and the
// function that removes what this run created.
func dataDir(data string) (string, func(), error) {
	if data != "" {
		if err := os.MkdirAll(data, 0o755); err != nil {
			return "", nil, err
		}
		return data, func() {}, nil
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "data-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// contractLine is the object BENCHMARK.json's contract asks for: the gated
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one.
func contractLine(r *result) map[string]any {
	defs := defsOf(endToEnd)
	if r.Traced {
		defs = defsOf(perLayer)
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		m := r.Metrics[d.name]
		metrics[d.name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

// addTraceOverhead sets trace_overhead_frac on each traced result that has
// an untraced run of the same workload before it.
func addTraceOverhead(results []*result) {
	untraced := map[string]float64{}
	for _, r := range results {
		if !r.Traced {
			untraced[r.Workload] = r.Metrics["ops_s"].Value
		} else if base, ok := untraced[r.Workload]; ok {
			r.Metrics["trace_overhead_frac"] = newMetric("trace_overhead_frac",
				1-r.Metrics["traced_ops_s"].Value/base, 0, "1 − traced_ops_s ÷ ops_s")
		}
	}
}

// summarise gives each end-to-end metric's quartiles over the repeated sets.
func summarise(results []*result) map[string]map[string]repeatStat {
	values := map[string]map[string][]float64{}
	for _, r := range results {
		if r.Traced {
			continue
		}
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for _, d := range defsOf(endToEnd) {
			values[r.Workload][d.name] = append(values[r.Workload][d.name], r.Metrics[d.name].Value)
		}
	}
	out := map[string]map[string]repeatStat{}
	for w, byMetric := range values {
		out[w] = map[string]repeatStat{}
		for m, vs := range byMetric {
			if len(vs) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(vs)
			out[w][m] = repeatStat{Values: vs, Q1: q1, Median: q2, Q3: q3, Spread: spread(vs)}
		}
	}
	return out
}

func printTables(doc *document) {
	tw := tabwriter.NewWriter(os.Stderr, 0, 8, 2, ' ', 0)
	for _, r := range doc.Results {
		mode := "untraced"
		if r.Traced {
			mode = "traced"
		}
		fmt.Fprintf(tw, "\n%s (%s, %.1f s, seed %d): correct=%v attempted=%d failed=%d compactions=%v\n",
			r.Workload, mode, r.WindowS, r.Seed, r.Correct, r.Attempted, r.Failed, r.Compactions)
		names := make([]string, 0, len(r.Metrics))
		for name := range r.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := r.Metrics[name]
			bound := ""
			if m.Bound > 0 {
				bound = fmt.Sprintf("bound %.0f%%", m.Bound*100)
			}
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\tn=%d\t%s\t%s\n", name, m.Value, m.Unit, m.Samples, bound, m.Note)
		}
		for _, l := range []string{"core", "handler", "kv.physical"} {
			by := r.LayerMs[l]
			keys := make([]string, 0, len(by))
			for k := range by {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			for _, k := range keys {
				fmt.Fprintf(tw, "  %s %s\t%.6g\tms/op\t\t\tΣ over providers\n", l, k, by[k])
			}
		}
		for _, e := range r.FirstErrors {
			fmt.Fprintf(tw, "  error: %s\n", e)
		}
	}
	for _, w := range workloadNames {
		for _, d := range defsOf(endToEnd) {
			if st, ok := doc.Repeat[w][d.name]; ok {
				fmt.Fprintf(tw, "repeat %s %s\tq1 %.6g\tmedian %.6g\tq3 %.6g\tspread %.2f%%\tn=%d\n",
					w, d.name, st.Q1, st.Median, st.Q3, st.Spread*100, len(st.Values))
			}
		}
	}
	tw.Flush()
}

func newStamp(dataRoot string, o options) stamp {
	s := stamp{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: procField("/proc/cpuinfo", "model name"), Kernel: firstLine("/proc/sys/kernel/osrelease"),
		DataFS: fsType(dataRoot), Seed: o.seed, WindowS: o.seconds, TraceS: o.traceSeconds, SetupRuns: setupRepeats,
		Deployment: fmt.Sprintf("%d providers in one process, each kvstore.OpenLSM → dedup.Wrap → provider.NewDurable → rpc.Server on 127.0.0.1 TCP; "+
			"R=%d; client rpc.NewPool(%d conns) → resilient.WrapAll → core.Attach, every client option at its default "+
			"(64 MiB segment cache; striping, hedging, throttling, autobalance off); %d closed-loop client goroutines",
			numProviders, numReplicas, connsPerProvider, numClients),
		FlushPolicy: flushPolicy,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				s.Commit = kv.Value
			}
		}
	}
	return s
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

// procField returns the value of the first "key : value" line of a /proc
// file.
func procField(path, key string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir: the type of the longest mount
// point in /proc/mounts that is a prefix of dir's absolute path.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
