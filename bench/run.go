package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// metricDef fixes a metric's unit and direction once; BENCHMARK.json must
// agree (a test compares them).
type metricDef struct {
	name, unit, better string
	kind               metricKind
}

type metricKind uint8

const (
	diagnostic metricKind = iota // printed, no bound
	endToEnd                     // gated by BENCHMARK.json, reported by every workload's untraced run
	perLayer                     // reported by every workload's traced run
)

var metricDefs = []metricDef{
	// The operation counted and timed is the workload's own: Load on the
	// restore workloads, the whole ancestor-transfer-store iteration (ops_s)
	// and StoreDerived (op_p50_ms) on derive, BestAncestor on lcp-query.
	{"ops_s", "1/s", "higher", endToEnd},
	{"op_p50_ms", "ms", "lower", endToEnd},
	{"space_amp", "ratio", "lower", endToEnd},
	{"setup_s", "s", "lower", endToEnd},

	{"client_self_ms", "ms", "lower", perLayer},
	{"rpc_self_ms", "ms", "lower", perLayer},
	{"provider_self_ms", "ms", "lower", perLayer},
	{"dedup_self_ms", "ms", "lower", perLayer},
	{"kvstore_busy_ms", "ms", "lower", perLayer},
	{"segcache_hit_rate", "ratio", "higher", perLayer},
	{"coalesced_per_op", "count", "higher", perLayer},
	{"rpc_calls_per_op", "count", "lower", perLayer},
	{"rpc_attempts_per_call", "ratio", "lower", perLayer},
	{"wire_bytes_per_logical_byte", "ratio", "lower", perLayer},
	{"cas_hit_rate", "ratio", "higher", perLayer},
	{"kv_ops_per_op", "count", "lower", perLayer},
	{"kv_write_amp", "ratio", "lower", perLayer},
	{"kv_stall_count", "count", "lower", perLayer},
	{"kv_put_max_ms", "ms", "lower", perLayer},
	{"traced_ops_s", "1/s", "higher", perLayer},

	// The end-to-end numbers under the names each workload is discussed by,
	// and what is too unsteady on a shared two-core machine to gate.
	{"load_mb_s", "MB/s", "higher", diagnostic},
	{"load_p50_ms", "ms", "lower", diagnostic},
	{"load_ptail_ms", "ms", "lower", diagnostic},
	{"derive_ops_s", "1/s", "higher", diagnostic},
	{"store_p50_ms", "ms", "lower", diagnostic},
	{"store_ptail_ms", "ms", "lower", diagnostic},
	{"transfer_p50_ms", "ms", "lower", diagnostic},
	{"lcp_qps", "1/s", "higher", diagnostic},
	{"lcp_p50_ms", "ms", "lower", diagnostic},
	{"lcp_ptail_ms", "ms", "lower", diagnostic},
	{"failed_frac", "ratio", "lower", diagnostic},
	{"allocs_per_op", "count", "lower", diagnostic},
	{"alloc_bytes_per_op", "B", "lower", diagnostic},
	{"disk_write_amp", "ratio", "lower", diagnostic},
	{"traced_op_mean_ms", "ms", "lower", diagnostic},
	{"conn_fanout", "ratio", "lower", diagnostic},
	{"trace_overhead_frac", "ratio", "lower", diagnostic},
}

func defsOf(kind metricKind) []metricDef {
	var out []metricDef
	for _, d := range metricDefs {
		if d.kind == kind {
			out = append(out, d)
		}
	}
	return out
}

// newMetric fills in the unit and direction metricDefs fixes for name.
func newMetric(name string, v float64, samples int, note string) metric {
	for _, d := range metricDefs {
		if d.name == name {
			return metric{Value: v, Unit: d.unit, Better: d.better, Samples: samples, Bound: bounds[name], Note: note}
		}
	}
	panic("bench: metric " + name + " is not in metricDefs")
}

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better,omitempty"`
	Samples int     `json:"samples,omitempty"`
	// Bound is the share of the parent's median by which a gated metric may
	// get worse; diagnostics have none.
	Bound float64 `json:"bound,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload    string   `json:"workload"`
	Why         string   `json:"why"`
	Traced      bool     `json:"traced"`
	Seed        int64    `json:"seed"`
	WindowS     float64  `json:"window_s"`
	Correct     bool     `json:"correct"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	FirstErrors []string `json:"first_errors,omitempty"`
	// Compactions is the full compactions each provider completed inside
	// the window.
	Compactions []int `json:"compactions_in_window"`
	// Slices is the throughput and median latency of each tenth of the
	// window: it shows whether a run was steady or hit by a stall or by the
	// machine's other tenants.
	Slices  []slice           `json:"slices"`
	Metrics map[string]metric `json:"metrics"`
	// LayerMs breaks handler and kv.physical span time down by RPC name and
	// store call: ms per op, summed over every provider (traced runs).
	LayerMs map[string]map[string]float64 `json:"layer_ms_per_op,omitempty"`
}

type runConfig struct {
	seed     int64
	window   time.Duration
	traced   bool
	setups   int // how often set-up runs; setup_s is the median
	dataRoot string
	sc       scale
	traceOut string // Chrome trace file of a traced run; "" for none
}

// spansPerSecond sizes the trace buffer from the window. The workloads
// record up to about 15k spans a second on two cores; a full buffer fails
// the run rather than dropping spans silently.
const spansPerSecond = 100e3

func runWorkload(ctx context.Context, name string, cfg runConfig) (_ *result, err error) {
	var rec *recorder
	if cfg.traced {
		rec = newRecorder(int(cfg.window.Seconds()*spansPerSecond) + 1<<16)
	}
	e, w, setupS, err := setUp(ctx, name, cfg, rec)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := e.d.close(); err == nil {
			err = cerr
		}
	}()
	win := measure(ctx, e, w, cfg.window)
	if len(win.all.primary) == 0 {
		return nil, fmt.Errorf("%s: no operation completed in %v: %v", name, cfg.window, win.errors)
	}

	res := &result{
		Workload: name, Why: workloadWhy[name], Traced: cfg.traced, Seed: cfg.seed, WindowS: win.elapsed,
		Attempted: win.all.attempted, Failed: win.all.failed, FirstErrors: win.errors,
		Metrics: make(map[string]metric),
	}
	// Space is measured once the stores have been flushed and compacted, and
	// before finish retires anything.
	if err := e.d.settle(); err != nil {
		return nil, err
	}
	spaceAmp := float64(e.d.storedBytes()) / float64(w.liveBytes())
	if err := w.finish(ctx, e); err != nil {
		res.fail(err.Error())
	}
	if win.dropped > 0 {
		res.fail(fmt.Sprintf("trace buffer full: %d spans dropped", win.dropped))
	}
	res.Correct = res.Failed == 0
	res.report(win, spaceAmp, setupS)
	if cfg.traced {
		res.layerMetrics(reduceSpans(rec, win.spans), win)
		if cfg.traceOut != "" {
			if err := writeChromeTrace(cfg.traceOut, rec, win.spans); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

func (res *result) fail(msg string) {
	res.Failed++
	res.FirstErrors = append(res.FirstErrors, msg)
}

func (res *result) set(name string, v float64, samples int, note string) {
	res.Metrics[name] = newMetric(name, v, samples, note)
}

// setUp runs the whole set-up cfg.setups times, each on a fresh deployment,
// and returns the last one, which the caller closes, with the time each took.
func setUp(ctx context.Context, name string, cfg runConfig, rec *recorder) (e *env, w workload, setupS []float64, err error) {
	for range cfg.setups {
		if e != nil {
			if err := e.d.close(); err != nil {
				return nil, nil, nil, err
			}
		}
		t0 := time.Now()
		d, err := deploy(cfg.dataRoot, rec)
		if err != nil {
			return nil, nil, nil, err
		}
		e = &env{d: d, sc: cfg.sc, seed: cfg.seed}
		if w, err = newWorkload(name); err == nil {
			err = w.setup(ctx, e)
		}
		if err != nil {
			d.close()
			return nil, nil, nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	return e, w, setupS, nil
}

// window is what one measured window produced.
type window struct {
	elapsed  float64 // s
	all      samples // every client's samples; primary and transfer sorted
	slices   []slice
	errors   []string
	c0, c1   counts
	compacts []int // full compactions per provider inside the window
	mallocs  uint64
	allocB   uint64
	diskB    int64 // /proc/self/io write_bytes delta; -1 where unavailable
	spans    []span
	dropped  int
}

// measure runs the closed loops for the length of the window.
func measure(ctx context.Context, e *env, w workload, length time.Duration) window {
	d := e.d
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	io0 := diskWriteBytes()
	win := window{c0: d.counts()}
	comp0 := d.compactions()
	per := make([]samples, numClients)
	if d.rec != nil {
		d.rec.start()
	}
	start := time.Now()
	deadline := start.Add(length)
	var errMu sync.Mutex
	_ = eachClient(func(c int) error {
		s := &per[c]
		for time.Now().Before(deadline) {
			s.attempted++
			if err := w.iterate(ctx, e, c, s); err != nil {
				s.failed++
				errMu.Lock()
				if len(win.errors) < 5 {
					win.errors = append(win.errors, err.Error())
				}
				errMu.Unlock()
				continue
			}
			s.done = append(s.done, time.Since(start).Seconds())
		}
		return nil
	})
	win.elapsed = time.Since(start).Seconds()
	if d.rec != nil {
		win.spans, win.dropped = d.rec.stop()
	}
	win.c1 = d.counts()
	for i, n := range d.compactions() {
		win.compacts = append(win.compacts, n-comp0[i])
	}
	win.diskB = -1
	if io1 := diskWriteBytes(); io0 >= 0 && io1 >= 0 {
		win.diskB = io1 - io0
	}
	runtime.ReadMemStats(&m1)
	win.mallocs, win.allocB = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc

	win.slices = cutSlices(per, win.elapsed)
	for _, s := range per {
		win.all.primary = append(win.all.primary, s.primary...)
		win.all.transfer = append(win.all.transfer, s.transfer...)
		win.all.attempted += s.attempted
		win.all.failed += s.failed
		win.all.readBytes += s.readBytes
		win.all.putBytes += s.putBytes
	}
	sort.Float64s(win.all.primary)
	sort.Float64s(win.all.transfer)
	return win
}

// numSlices is how many equal parts a window is cut into.
const numSlices = 10

// slice is one part of a window.
type slice struct {
	OpsS  float64 `json:"ops_s"`
	P50Ms float64 `json:"op_p50_ms"` // 0 when no operation ended in the slice
}

// cutSlices assigns every completed operation to the slice it ended in.
func cutSlices(per []samples, elapsed float64) []slice {
	lat := make([][]float64, numSlices)
	for _, s := range per {
		for i, end := range s.done {
			k := min(int(end/elapsed*numSlices), numSlices-1)
			lat[k] = append(lat[k], s.primary[i])
		}
	}
	out := make([]slice, numSlices)
	for k, l := range lat {
		out[k] = slice{OpsS: float64(len(l)) * numSlices / elapsed, P50Ms: median(l)}
	}
	return out
}

// report fills in the end-to-end metrics and the diagnostics.
func (res *result) report(win window, spaceAmp float64, setupS []float64) {
	all := win.all
	ops := len(all.primary)
	res.Compactions = win.compacts
	res.Slices = win.slices
	opsS := float64(ops) / win.elapsed
	p50 := metrics.Percentile(all.primary, 0.5)
	tp, tv := tail(all.primary)
	tailNote := "p" + strconv.FormatFloat(tp*100, 'f', -1, 64)
	if !res.Traced {
		res.set("ops_s", opsS, ops, "")
		res.set("op_p50_ms", p50, ops, "")
		res.set("space_amp", spaceAmp, 1, "")
		res.set("setup_s", median(setupS), len(setupS), "")
	}
	// The same numbers under the names the workloads are discussed by, and
	// the diagnostics no bound is set on.
	switch res.Workload {
	case "restore-cold", "restore-hot":
		res.set("load_mb_s", float64(all.readBytes)/1e6/win.elapsed, ops, "")
		res.set("load_p50_ms", p50, ops, "")
		res.set("load_ptail_ms", tv, ops, tailNote)
	case "derive":
		res.set("derive_ops_s", opsS, ops, "")
		res.set("store_p50_ms", p50, ops, "")
		res.set("store_ptail_ms", tv, ops, tailNote)
		res.set("transfer_p50_ms", metrics.Percentile(all.transfer, 0.5), len(all.transfer), "")
	case "lcp-query":
		res.set("lcp_qps", opsS, ops, "")
		res.set("lcp_p50_ms", p50, ops, "")
		res.set("lcp_ptail_ms", tv, ops, tailNote)
	}
	res.set("failed_frac", float64(res.Failed)/float64(res.Attempted), res.Attempted, "")
	res.set("allocs_per_op", float64(win.mallocs)/float64(ops), ops, "process-wide")
	res.set("alloc_bytes_per_op", float64(win.allocB)/float64(ops), ops, "process-wide")
	if win.diskB >= 0 && all.putBytes > 0 {
		res.set("disk_write_amp", float64(win.diskB)/float64(all.putBytes), 1, "/proc/self/io write_bytes per logical byte stored")
	}
}

// layerMetrics turns a traced window into the per-layer metrics. Below the
// client the legs of one op run in parallel (three replicas, four providers
// of a broadcast), so the layers' summed span time is more than the op
// waited for. Each layer is therefore given its share of the time the op
// was blocked on the wire, ∪conn, in proportion to its summed self time;
// the five self times then add up to the mean op latency.
func (res *result) layerMetrics(lt layerTimes, win window) {
	all, c0, c1, set := win.all, win.c0, win.c1, res.set
	ops := len(all.primary)
	perOp := func(ns float64) float64 { return ns / 1e6 / float64(ops) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	connSum := float64(lt.sum[layerConn])
	blocked := float64(lt.sum[layerCore] - lt.clientSelf) // Σ ∪conn
	share := func(selfSum int64) float64 { return perOp(blocked * ratio(float64(selfSum), connSum)) }
	n := int(lt.count[layerCore])
	set("client_self_ms", perOp(float64(lt.clientSelf)), n, "core − ∪conn")
	set("rpc_self_ms", share(lt.sum[layerConn]-lt.sum[layerHandler]), int(lt.count[layerConn]), "Σconn − Σhandler, blocking share")
	set("provider_self_ms", share(lt.sum[layerHandler]-lt.sum[layerKVLogical]), int(lt.count[layerHandler]), "Σhandler − Σkv.logical, blocking share")
	set("dedup_self_ms", share(lt.sum[layerKVLogical]-lt.sum[layerKVPhysical]), int(lt.count[layerKVLogical]), "Σkv.logical − Σkv.physical, blocking share")
	set("kvstore_busy_ms", share(lt.sum[layerKVPhysical]), int(lt.count[layerKVPhysical]), "Σkv.physical, blocking share")
	set("traced_op_mean_ms", perOp(float64(lt.sum[layerCore])), n, "Σcore per op: what the five self times add up to")
	set("conn_fanout", ratio(connSum, blocked), 0, "Σconn ÷ ∪conn: mean parallel legs per op")

	delta := func(name string) float64 { return float64(c1.reg[name] - c0.reg[name]) }
	hits, misses := delta("client.segcache_hit"), delta("client.segcache_miss")
	set("segcache_hit_rate", ratio(hits, hits+misses), int(hits+misses), "")
	set("coalesced_per_op", delta("client.coalesced_read")/float64(ops), ops, "")
	calls := float64(c1.calls - c0.calls)
	set("rpc_calls_per_op", calls/float64(ops), ops, "")
	set("rpc_attempts_per_call", ratio(float64(lt.count[layerConn]), float64(lt.count[layerConn])-delta("rpc.retries")), int(lt.count[layerConn]), "")
	set("wire_bytes_per_logical_byte", ratio(float64(c1.wireBytes-c0.wireBytes), float64(all.readBytes+all.putBytes)), 0, "")
	casHits := float64(c1.casHits - c0.casHits)
	set("cas_hit_rate", ratio(casHits, casHits+float64(lt.chunkPuts)), int(casHits)+int(lt.chunkPuts), "")
	set("kv_ops_per_op", float64(lt.count[layerKVPhysical])/float64(ops), ops, "")
	set("kv_write_amp", ratio(float64(lt.putBytes), float64(all.putBytes)), 0, "bytes Put at kv.physical ÷ logical bytes stored")
	set("kv_stall_count", float64(lt.stalls), 0, "kv.physical Put/Delete/Sync spans over 50 ms")
	set("kv_put_max_ms", float64(lt.putMaxNs)/1e6, 0, "")
	set("traced_ops_s", float64(ops)/win.elapsed, ops, "ops_s of a traced run; 1 − traced_ops_s ÷ ops_s is the tracing overhead")

	res.LayerMs = map[string]map[string]float64{}
	for _, l := range []layer{layerCore, layerHandler, layerKVPhysical} {
		by := map[string]float64{}
		for name, ns := range lt.byName[l] {
			by[name] = perOp(float64(ns))
		}
		res.LayerMs[layerNames[l]] = by
	}
}

// diskWriteBytes reads write_bytes from /proc/self/io; -1 where there is no
// such file.
func diskWriteBytes() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				return n
			}
		}
	}
	return -1
}
