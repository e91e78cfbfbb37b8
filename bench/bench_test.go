package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/model"
)

// tinyScale keeps the shape of every workload (more cold models than the
// clients' shares, a lineage, a population that retires, spot-checked
// queries) at a size that runs in milliseconds.
var tinyScale = scale{
	modelBytes: 256 << 10, layers: 4,
	coldModels: 6, lineage: 4,
	population: 4, setupCompactions: 0,
	catalog: 40, queries: 16, spotCheckEvery: 4,
}

// TestSmoke runs all four workloads, untraced and traced, and checks that
// every run verifies and reports every metric its mode promises.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 3, window: 300 * time.Millisecond, traced: traced, setups: 1, dataRoot: t.TempDir(), sc: tinyScale}
			if !traced {
				cfg.setups = 2 // also exercises tearing a deployment down and setting up again
			}
			res, err := runWorkload(context.Background(), name, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d errors=%v",
					name, traced, res.Correct, res.Attempted, res.Failed, res.FirstErrors)
			}
			kind := endToEnd
			if traced {
				kind = perLayer
			}
			line := contractLine(res)
			metrics := line["metrics"].(map[string]any)
			if len(line) != 4 || len(metrics) != len(defsOf(kind)) {
				t.Errorf("%s traced=%v: result object has %d keys and %d metrics", name, traced, len(line), len(metrics))
			}
			for _, d := range defsOf(kind) {
				m, ok := res.Metrics[d.name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s missing or not finite: %+v", name, traced, d.name, m)
				}
				if kind == endToEnd && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			if traced {
				// The five self times are shares of the traced op latency.
				sum := 0.0
				for _, n := range []string{"client_self_ms", "rpc_self_ms", "provider_self_ms", "dedup_self_ms", "kvstore_busy_ms"} {
					sum += res.Metrics[n].Value
				}
				if mean := res.Metrics["traced_op_mean_ms"].Value; math.Abs(sum-mean) > 0.1*mean {
					t.Errorf("%s: layer self times sum to %.4f ms, traced mean op latency is %.4f ms", name, sum, mean)
				}
			}
		}
	}
}

func TestUnionAndSelfTime(t *testing.T) {
	cases := []struct {
		ivs  [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{5, 10}, {0, 3}}, 8},            // disjoint, unsorted
		{[][2]int64{{0, 10}, {5, 15}}, 15},          // overlapping
		{[][2]int64{{0, 10}, {2, 4}, {10, 12}}, 12}, // nested and touching
		{[][2]int64{{4, 4}, {7, 3}, {1, 2}}, 1},     // empty and inverted intervals count nothing
	}
	for _, c := range cases {
		if got := unionLen(c.ivs); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.ivs, got, c.want)
		}
	}
	parent := span{start: 100, end: 200}
	children := []span{
		{start: 90, end: 120},  // clipped to 100..120
		{start: 110, end: 130}, // overlaps the first: adds 120..130
		{start: 150, end: 160},
		{start: 190, end: 250}, // clipped to 190..200
		{start: 300, end: 400}, // outside
	}
	if got := selfTime(parent, children); got != 100-(30+10+10) {
		t.Errorf("selfTime = %d, want 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

// TestReduceSpans checks the attribution on a hand-made trace: one op with
// two parallel conn legs.
func TestReduceSpans(t *testing.T) {
	rec := newRecorder(16)
	load, read, get, put, chunk := rec.nameID("Load"), rec.nameID("read"), rec.nameID("Get"), rec.nameID("Put"), rec.nameID("PutChunk")
	spans := []span{
		{start: 0, end: 100, op: 1, name: load, layer: layerCore},
		{start: 10, end: 60, op: 1, name: read, layer: layerConn, node: 1},
		{start: 20, end: 90, op: 1, name: read, layer: layerConn, node: 2},
		{start: 500, end: 600, op: 2, name: read, layer: layerConn, node: 1}, // another op's leg
		{start: 15, end: 55, name: read, layer: layerHandler, node: 1},
		{start: 20, end: 30, name: get, layer: layerKVLogical, node: 1},
		{start: 22, end: 28, name: get, layer: layerKVPhysical, node: 1},
		{start: 30, end: 30 + stallNs + 1, bytes: 7, name: put, layer: layerKVPhysical, node: 1},
		{start: 40, end: 41, bytes: 5, name: chunk, layer: layerKVPhysical, node: 1},
	}
	lt := reduceSpans(rec, spans)
	if lt.sum[layerCore] != 100 || lt.clientSelf != 20 { // ∪conn of op 1 is 10..90
		t.Errorf("core sum %d clientSelf %d, want 100 and 20", lt.sum[layerCore], lt.clientSelf)
	}
	if lt.sum[layerConn] != 50+70+100 || lt.count[layerConn] != 3 || lt.sum[layerHandler] != 40 {
		t.Errorf("conn sum %d attempts %d handler sum %d", lt.sum[layerConn], lt.count[layerConn], lt.sum[layerHandler])
	}
	if lt.putBytes != 12 || lt.chunkPuts != 1 || lt.stalls != 1 || lt.putMaxNs != stallNs+1 {
		t.Errorf("putBytes %d chunkPuts %d stalls %d putMax %d", lt.putBytes, lt.chunkPuts, lt.stalls, lt.putMaxNs)
	}
}

func TestTailRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n     int
		p     float64
		value float64
	}{
		{100000, 0.9999, 99990}, // exactly ten samples beyond
		{99999, 0.999, 99900},   // 9.99 beyond p99.99: one step down
		{1000, 0.99, 990},
		{999, 0.95, 950},
		{20, 0.5, 10},
		{19, 0.5, 10}, // too small for any step: the median
	}
	for _, c := range cases {
		p, v := tail(ramp(c.n))
		if p != c.p || v != c.value {
			t.Errorf("tail of %d samples = p%v at %v, want p%v at %v", c.n, p*100, v, c.p*100, c.value)
		}
		if beyond := c.n - int(v); c.n >= 20 && beyond < 10 {
			t.Errorf("tail of %d samples leaves %d beyond", c.n, beyond)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) of Python 3.
	cases := []struct{ xs, want []float64 }{
		{[]float64{3.1, 2.7, 9.4, 5.5, 1.2, 7.7, 6.0, 4.4, 8.8, 2.0}, []float64{2.525, 4.95, 7.975}},
		{[]float64{1, 2}, []float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3}, []float64{1, 3, 5}},
		{[]float64{10, 20, 30, 40, 50.5}, []float64{15, 30, 45.25}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.xs, i, got, c.want[i])
			}
		}
	}
	if got := spread([]float64{90, 100, 110, 95, 105}); math.Abs(got-0.15) > 1e-9 {
		t.Errorf("spread = %v, want 0.15", got)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	if a, b := newRand(7, 0).Perm(40), newRand(7, 0).Perm(40); !reflect.DeepEqual(a, b) {
		t.Errorf("same seed and stream, different permutations: %v %v", a, b)
	}
	if a, b := newRand(7, 0).Perm(40), newRand(8, 0).Perm(40); reflect.DeepEqual(a, b) {
		t.Errorf("different seeds, same permutation")
	}
	if a, b := newRand(7, 0).Perm(40), newRand(7, 1).Perm(40); reflect.DeepEqual(a, b) {
		t.Errorf("different streams, same permutation")
	}
	draw := func(seed int64) []int {
		z := newZipf(seed, 10, 12, zipfS)
		out := make([]int, 2000)
		for i := range out {
			out[i] = int(z.Uint64())
		}
		return out
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different zipfian draws")
	}
	counts := make([]int, 12)
	for _, k := range a {
		if k < 0 || k >= 12 {
			t.Fatalf("zipfian rank %d out of range", k)
		}
		counts[k]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[11] {
		t.Errorf("zipfian draws are not skewed toward low ranks: %v", counts)
	}

	// A sparse perturbation changes half the layers and is a function of the
	// seed alone.
	f, err := uniformModel(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	base := model.Materialize(f, 1)
	x, y := base.Clone(), base.Clone()
	perturbSparse(f, x, newRand(7, 20))
	perturbSparse(f, y, newRand(7, 20))
	if fingerprint(x) != fingerprint(y) || fingerprint(x) == fingerprint(base) {
		t.Errorf("perturbSparse is not a function of the seed, or changed nothing")
	}
	changed := 0
	for _, v := range paramVertices(f) {
		if !x.VertexEqual(base, v) {
			changed++
		}
	}
	if changed != tinyScale.layers/2 {
		t.Errorf("perturbSparse changed %d of %d layers, want half", changed, tinyScale.layers)
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json and the tables in this
// package from drifting apart.
func TestBenchmarkJSONAgrees(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", spec.Paths)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %s: why differs from workloadWhy", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads = %v, want %v", names, workloadNames)
	}
	check := func(got []jsonMetric, kind metricKind) {
		want := defsOf(kind)
		if len(got) != len(want) {
			t.Errorf("%d metrics of kind %d in BENCHMARK.json, %d in metricDefs", len(got), kind, len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != bounds[d.name] {
				t.Errorf("BENCHMARK.json has %+v, metricDefs has %+v with bound %v", g, d, bounds[d.name])
			}
		}
	}
	check(spec.EndToEnd, endToEnd)
	check(spec.PerLayer, perLayer)
}
