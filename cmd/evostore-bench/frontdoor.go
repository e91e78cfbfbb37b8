package main

// The frontdoor scenario exercises the multi-tenant front door end to end
// over real TCP providers. It keeps its own cluster builder — several
// client.Clients with their own caches against per-provider registries and
// throttle limits, none of which core.Open exposes — but takes its worker
// pool and latency summary from the harness. Contract:
//
//  1. Zipfian fan-in: several clients (each with its own segment cache and
//     flight group) hammer a skewed model popularity distribution with zero
//     failed loads; coalescing plus the read-through cache must cut the
//     providers' read executions to under a fifth of the loads issued.
//  2. Throttled-tenant isolation: a noisy tenant with unbounded demand and
//     a quiet tenant with modest demand share one throttled provider; the
//     noisy tenant must be held under its bucket's admit ceiling and the
//     quiet tenant must never be throttled, alone or contended. (The quiet
//     tenant's p99 is printed, not asserted: see ROADMAP's anomalies.)

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bulkbench"
	"repro/internal/client"
	"repro/internal/frontdoor"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/ownermap"
	"repro/internal/provider"
	"repro/internal/rpc"
)

// fdCluster is a TCP deployment with per-provider metrics registries.
type fdCluster struct {
	addrs []string
	regs  []*metrics.Registry
	lis   []interface{ Close() error }
}

func newFDCluster(n int, limits frontdoor.Limits) (*fdCluster, error) {
	c := &fdCluster{}
	for i := 0; i < n; i++ {
		p := provider.New(i, kvstore.NewMemKV(8))
		reg := metrics.NewRegistry()
		p.SetMetricsRegistry(reg)
		p.SetThrottle(limits)
		srv := rpc.NewServer()
		p.Register(srv)
		lis, addr, err := rpc.ListenAndServeTCP("127.0.0.1:0", srv)
		if err != nil {
			c.close()
			return nil, err
		}
		c.addrs = append(c.addrs, addr)
		c.regs = append(c.regs, reg)
		c.lis = append(c.lis, lis)
	}
	return c, nil
}

func (c *fdCluster) close() {
	for _, l := range c.lis {
		l.Close()
	}
}

// counterSum adds one named counter across every provider registry.
func (c *fdCluster) counterSum(name string) uint64 {
	var total uint64
	for _, reg := range c.regs {
		total += reg.Counter(name).Load()
	}
	return total
}

// dial builds a client on fresh connection pools (2 conns per provider)
// with its own counter registry.
func (c *fdCluster) dial(opts ...client.Option) (*client.Client, *metrics.Registry, func()) {
	conns := make([]rpc.Conn, len(c.addrs))
	for i, a := range c.addrs {
		conns[i] = rpc.NewPool(a, 2, rpc.DialTCP)
	}
	reg := metrics.NewRegistry()
	cli := client.New(conns, append(opts, client.WithRegistry(reg))...)
	return cli, reg, func() {
		for _, cn := range conns {
			cn.Close()
		}
	}
}

// store writes chain models first..last of nseg x segBytes through a
// throwaway client.
func (c *fdCluster) store(first, last, nseg, segBytes int) error {
	cli, _, closeCli := c.dial()
	defer closeCli()
	for id := first; id <= last; id++ {
		meta, segs := bulkbench.ChainModel(ownermap.ModelID(id), nseg, segBytes)
		if err := cli.Store(context.Background(), meta, segs); err != nil {
			return err
		}
	}
	return nil
}

// loadModel is one front-door read: a whole-model Load.
func loadModel(cli *client.Client, id int) error {
	_, err := cli.Load(context.Background(), ownermap.ModelID(id))
	return err
}

func runFrontdoor(cfg config) error {
	if err := zipfPhase(cfg); err != nil {
		return fmt.Errorf("zipf phase: %w", err)
	}
	if err := throttlePhase(cfg); err != nil {
		return fmt.Errorf("throttle phase: %w", err)
	}
	return nil
}

func zipfPhase(cfg config) error {
	clients, goroutines, models := cfg.size(3, 2), cfg.size(8, 4), cfg.size(24, 6)
	loads, nseg, segBytes := cfg.size(4000, 300), cfg.size(8, 4), cfg.size(16<<10, 4<<10)
	cl, err := newFDCluster(4, frontdoor.Limits{})
	if err != nil {
		return err
	}
	defer cl.close()
	if err := cl.store(1, models, nseg, segBytes); err != nil {
		return err
	}
	clis := make([]*client.Client, clients)
	regs := make([]*metrics.Registry, clients)
	for i := range clis {
		var closeCli func()
		clis[i], regs[i], closeCli = cl.dial()
		defer closeCli()
	}

	workers := clients * goroutines
	start := time.Now()
	rs := pool(cfg.seed, workers, models, true, untilCount(loads/workers), func(w, rank int) error {
		return loadModel(clis[w%clients], rank+1)
	})
	elapsed := time.Since(start)
	if rs.fails != 0 {
		return fmt.Errorf("%d loads failed (want 0); first: %w", rs.fails, rs.err)
	}
	total := len(rs.lats)
	execs := cl.counterSum("provider.read_exec")
	var coalesced, hits, misses uint64
	for _, reg := range regs {
		coalesced += reg.Counter("client.coalesced_read").Load()
		hits += reg.Counter("client.segcache_hit").Load()
		misses += reg.Counter("client.segcache_miss").Load()
	}
	tbl := metrics.NewTable("Loads", "Provider execs", "Fan-in reduction", "Coalesced", "Cache hit rate", "Loads/s")
	tbl.Add(total, execs, fmt.Sprintf("%.1fx", float64(total)/float64(execs)), coalesced,
		fmt.Sprintf("%.1f%%", float64(hits)/float64(hits+misses)*100), fmt.Sprintf("%.0f", float64(total)/elapsed.Seconds()))
	tbl.Render(cfg.out)
	if execs == 0 || uint64(total) < 5*execs {
		return fmt.Errorf("%d loads took %d provider read executions: fan-in reduction below 5x", total, execs)
	}
	return nil
}

func throttlePhase(cfg config) error {
	const (
		quietModel  = 100
		noisyModels = 6
		quietPace   = 25 * time.Millisecond
		window      = time.Second
	)
	limit := float64(cfg.size(100, 50))
	dur := time.Duration(cfg.size(2000, 400)) * time.Millisecond
	// One provider: both tenants contend for the same admission front door,
	// which is the isolation being demonstrated.
	cl, err := newFDCluster(1, frontdoor.Limits{OpsPerSec: limit, Window: window})
	if err != nil {
		return err
	}
	defer cl.close()
	if err := cl.store(1, noisyModels, 4, 8<<10); err != nil {
		return err
	}
	if err := cl.store(quietModel, quietModel, 4, 8<<10); err != nil {
		return err
	}
	// Caches off: every read must cross the wire, or the tenants would
	// simply stop talking to the provider being measured.
	quiet, _, closeQuiet := cl.dial(client.WithTenant("quiet"), client.WithSegCacheBytes(0))
	defer closeQuiet()
	noisy, _, closeNoisy := cl.dial(client.WithTenant("noisy"), client.WithSegCacheBytes(0))
	defer closeNoisy()

	// The quiet tenant paces its loads of one model; a throttled refusal is
	// a failure like any other.
	quietRun := func() readStats {
		deadline := time.Now().Add(dur)
		return pool(cfg.seed, 1, 1, false, func(done int) bool {
			if done > 0 {
				time.Sleep(quietPace)
			}
			return time.Now().After(deadline)
		}, func(int, int) error { return loadModel(quiet, quietModel) })
	}
	alone := quietRun()

	// Contended: the noisy tenant hammers with unbounded demand, and being
	// refused is its normal case, while the quiet tenant keeps its pace.
	var throttled atomic.Int64
	var noisyRun readStats
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		noisyRun = pool(cfg.seed, 1, noisyModels, false, untilTime(dur), func(_, rank int) error {
			err := loadModel(noisy, rank+1)
			if _, ok := frontdoor.RetryAfterFromError(err); ok {
				throttled.Add(1)
				return nil
			}
			return err
		})
	}()
	contended := quietRun()
	wg.Wait()

	admitted := int64(len(noisyRun.lats)) - throttled.Load()
	rate := float64(admitted) / dur.Seconds()
	// A fresh tenant's buckets admit up to one window of burst on top of
	// the refill rate; amortized over the run that is the hard ceiling.
	ceiling := limit * (dur.Seconds() + window.Seconds()) / dur.Seconds()
	tbl := metrics.NewTable("Limit ops/s", "Noisy admitted/s", "Ceiling/s", "Noisy throttled",
		"Quiet ops", "Quiet p99 alone", "Quiet p99 contended")
	tbl.Add(limit, fmt.Sprintf("%.0f", rate), fmt.Sprintf("%.0f", ceiling), throttled.Load(),
		len(alone.lats)+len(contended.lats), fmt.Sprintf("%.2fms", alone.p(0.99)), fmt.Sprintf("%.2fms", contended.p(0.99)))
	tbl.Render(cfg.out)
	if noisyRun.fails != 0 {
		return fmt.Errorf("%d noisy-tenant loads failed other than by throttling; first: %w", noisyRun.fails, noisyRun.err)
	}
	if n := alone.fails + contended.fails; n != 0 {
		err := alone.err
		if err == nil {
			err = contended.err
		}
		return fmt.Errorf("%d quiet-tenant loads throttled or failed (want 0); first: %w", n, err)
	}
	if rate > ceiling*1.1 {
		return fmt.Errorf("noisy tenant admitted %.0f ops/s, above the %.0f ceiling: throttle not holding", rate, ceiling)
	}
	return nil
}
