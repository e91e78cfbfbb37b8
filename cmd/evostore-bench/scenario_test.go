package main

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/resilient"
	"repro/internal/rpc"
)

// testConfig is the invocation the tests use: smoke size, seed 1, and no
// wall-clock ratio contracts, so a loaded host cannot make tier-1 flake.
func testConfig(out *bytes.Buffer) config {
	return config{seed: 1, smoke: true, out: out}
}

// TestScenarios runs the whole dispatch table at smoke size: every
// scenario's contract and the shared invariant check are part of tier-1.
func TestScenarios(t *testing.T) {
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := execute(sc, testConfig(&out)); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
		})
	}
}

// TestScenarioNamesAgree pins the set of scenarios and that the dispatch
// table (which `check` walks), findScenario and the usage text name the
// same ones.
func TestScenarioNamesAgree(t *testing.T) {
	want := []string{"faults", "repair", "rebalance", "restart", "autobalance", "storm", "frontdoor", "dedup"}
	var got []string
	for _, sc := range scenarios {
		got = append(got, sc.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dispatch table names %v, want %v", got, want)
	}
	var listed []string
	_, list, _ := strings.Cut(usageText(), "scenarios:\n")
	for _, line := range strings.Split(strings.TrimSpace(list), "\n") {
		listed = append(listed, strings.Fields(line)[0])
	}
	if !reflect.DeepEqual(listed, want) {
		t.Errorf("usage lists scenarios %v, want %v", listed, want)
	}
	for _, name := range want {
		if sc, ok := findScenario(name); !ok || sc.name != name || sc.run == nil {
			t.Errorf("findScenario(%q) = %+v, %v", name, sc, ok)
		}
	}
	for _, gone := range []string{"bulk", "check", "fig4"} {
		if _, ok := findScenario(gone); ok {
			t.Errorf("findScenario(%q) found a scenario", gone)
		}
	}
}

// TestFailureNamesItsReplay: a failing scenario's message ends with the
// line that replays it.
func TestFailureNamesItsReplay(t *testing.T) {
	boom := errors.New("boom")
	sc := scenario{name: "x", run: func(config) error { return boom }}
	var out bytes.Buffer
	err := execute(sc, config{seed: 7, smoke: true, out: &out})
	if !errors.Is(err, boom) || !strings.HasSuffix(err.Error(), "(scenario=x seed=7 smoke=true)") {
		t.Fatalf("got %v", err)
	}
}

// TestReadStatsPercentiles pins the one percentile definition scenarios
// report: metrics.Percentile's interpolation between nearest ranks, over
// the sorted successful latencies.
func TestReadStatsPercentiles(t *testing.T) {
	ramp := make([]float64, 100) // 1..100 ms
	for i := range ramp {
		ramp[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		name     string
		lats     []float64
		p50, p99 float64
	}{
		{"empty", nil, 0, 0},
		{"single", []float64{3}, 3, 3},
		{"pair", []float64{1, 2}, 1.5, 1.99},
		{"ramp", ramp, 50.5, 99.01},
	} {
		s := readStats{lats: tc.lats}
		if got := s.p(0.5); !near(got, tc.p50) {
			t.Errorf("%s: p50 = %v, want %v", tc.name, got, tc.p50)
		}
		if got := s.p(0.99); !near(got, tc.p99) {
			t.Errorf("%s: p99 = %v, want %v", tc.name, got, tc.p99)
		}
	}
}

func near(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }

// TestPool: the worker pool stops where until says, counts failures apart
// from latencies, keeps the first error, returns latencies sorted, and
// draws the same zipfian ranks from the same seed.
func TestPool(t *testing.T) {
	boom := errors.New("boom")
	draw := func(seed int64) [][]int {
		var mu sync.Mutex
		ranks := make([][]int, 3)
		rs := pool(seed, 3, 10, true, untilCount(50), func(w, rank int) error {
			mu.Lock()
			defer mu.Unlock()
			ranks[w] = append(ranks[w], rank)
			if len(ranks[w])%10 == 0 {
				return boom
			}
			return nil
		})
		if rs.fails != 15 || len(rs.lats) != 135 || !errors.Is(rs.err, boom) {
			t.Fatalf("fails=%d lats=%d err=%v, want 15, 135, boom", rs.fails, len(rs.lats), rs.err)
		}
		for i := 1; i < len(rs.lats); i++ {
			if rs.lats[i] < rs.lats[i-1] {
				t.Fatalf("latencies not ascending at %d", i)
			}
		}
		return ranks
	}
	a, b, c := draw(1), draw(1), draw(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed drew different zipfian ranks")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds drew identical zipfian ranks")
	}
	zeros := 0
	for _, r := range append(append(a[0], a[1]...), a[2]...) {
		if r < 0 || r >= 10 {
			t.Fatalf("rank %d out of [0,10)", r)
		}
		if r == 0 {
			zeros++
		}
	}
	if zeros < 50 { // zipf(1.4) over 10 ranks puts ~47% on rank 0
		t.Errorf("rank 0 drawn %d/150 times: not the skew the scenarios rely on", zeros)
	}

	var seen []int
	pool(1, 1, 4, false, untilCount(8), func(_, rank int) error {
		seen = append(seen, rank)
		return nil
	})
	if want := []int{0, 1, 2, 3, 0, 1, 2, 3}; !reflect.DeepEqual(seen, want) {
		t.Errorf("round-robin ranks %v, want %v", seen, want)
	}
}

// A checker that cannot fail proves nothing: the next two tests break one
// invariant each and require check to name it.

// TestCheckCatchesLeakedRef takes one extra reference on a stored segment
// with no matching DecRef: after retire-all that segment must still be
// there, and check must say the repository did not drain.
func TestCheckCatchesLeakedRef(t *testing.T) {
	var out bytes.Buffer
	e, err := open(testConfig(&out), core.Options{Providers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if err := e.seed(4, true); err != nil {
		t.Fatal(err)
	}
	id := e.live()[0]
	home := e.repo.Providers()[e.repo.ReplicaSet(id)[0]]
	last := graph.VertexID(e.flat.Graph.NumVertices() - 1)
	if err := home.IncRef(id, []graph.VertexID{last}); err != nil {
		t.Fatal(err)
	}
	err = e.check()
	if err == nil || !strings.Contains(err.Error(), "did not drain") {
		t.Fatalf("check after a leaked IncRef: %v\n%s", err, out.String())
	}
	if !strings.Contains(err.Error(), "Segments:1") || !strings.Contains(err.Error(), "LiveRefs:1") {
		t.Errorf("drift report does not show the one leaked segment and ref: %v", err)
	}
}

// TestCheckCatchesUnrepairedDivergence stores through an outage under
// partial writes, heals, and runs NO repair pass: the replica that missed
// the writes differs from its peers, and check must name the diverged
// models.
func TestCheckCatchesUnrepairedDivergence(t *testing.T) {
	var out bytes.Buffer
	const providers, victim = 4, 2
	e, err := open(testConfig(&out), core.Options{
		Providers:     providers,
		Replicas:      2,
		PartialWrites: true,
		Faults:        func(int) *rpc.FaultConfig { return &rpc.FaultConfig{} },
		Resilience: &resilient.Options{
			MaxAttempts: 2,
			BackoffBase: time.Millisecond,
			BackoffMax:  time.Millisecond,
			Threshold:   3,
			Cooldown:    20 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	fc := e.repo.FaultConns()[victim]
	fc.SetPartitioned(true)
	// One model per provider as home: half of them have the victim in
	// their replica set.
	if err := e.seed(providers, false); err != nil {
		t.Fatal(err)
	}
	if e.count("client.partial_write") == 0 {
		t.Fatal("no partial write was accepted with a replica partitioned")
	}
	fc.SetPartitioned(false)
	if err := e.awaitHealed(); err != nil {
		t.Fatal(err)
	}
	err = e.check()
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("check after an unrepaired outage: %v\n%s", err, out.String())
	}
}
