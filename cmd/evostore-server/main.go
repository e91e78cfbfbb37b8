// Command evostore-server runs one EvoStore storage provider on TCP.
//
// A deployment is a fixed, ordered list of providers; every client must be
// given the same ordered address list (the order defines provider IDs for
// the static model→provider hash).
//
// Usage:
//
//	evostore-server -listen :7070 -id 0 [-data /path/to/dir] [-request-timeout 30s]
//	                [-deploy-size N -replicas R] [-metrics-interval 1m] [-dedup-ttl 2m]
//	                [-repair-interval 30s -repair-peers a,b]
//	                [-throttle-ops N -throttle-bytes N -throttle-window 60s]
//	                [-hedged-reads -hedge-budget N]
//
// Without -data the provider uses the in-memory backend (the paper's
// synchronized-pool mode); with -data it persists segments in an LSM store
// (the RocksDB-like mode) AND runs the durable catalog: model metadata,
// refcounts, repair journals and tombstones are written through to the
// store, an epoch-versioned MANIFEST (format version, provider identity,
// placement epoch, feature flags) gates reopen, and a crashed provider
// restarted on the same directory replays its catalog, re-announces itself
// to -repair-peers (adopting the newest placement epoch), and lets the
// anti-entropy repairer converge only the writes it missed while down.
//
// Either backend stores segments in content-addressed chunks: identical
// 64 KiB chunks across segments are stored once (see internal/dedup), and
// the chunk refcounts are recovered from the stored recipes on every start.
// It is a local storage concern — the wire format and replica digests see
// plain segments.
//
// -throttle-ops / -throttle-bytes arm per-tenant read admission control
// (the front door, see internal/frontdoor): each tenant gets token buckets
// refilled at the configured rates with a -throttle-window burst, and a
// read over budget is refused with a typed retry-after error that clients
// back off on without tripping their circuit breakers. Clients name their
// tenant via client.WithTenant (evostore-ctl -tenant); untagged clients
// share the anonymous tenant's budget.
//
// -hedged-reads arms tail-latency hedging on the in-server deployment
// client (the one -repair-interval runs over): a replicated
// read that is slow on its preferred replica launches a second attempt
// against the next-best replica after a health-score-scaled delay, first
// success wins, and -hedge-budget caps hedge volume in hedges/sec.
//
// With -deploy-size (and the deployment's -replicas) the provider arms its
// replica-placement guard: writes for models whose replica set does not
// include this provider are rejected, catching clients configured with a
// wrong address list or replication factor. The guard is epoch-aware — a
// rebalance (evostore-ctl placement add/remove/drain) installs newer
// tables over the set_placement RPC, and rejected clients receive the
// current table so they self-update. The flag combination is validated at
// startup and inconsistencies are fatal, never silently clamped.
//
// Elasticity:
//
//	-join   start as a spare: -id may lie outside [0..deploy-size); the
//	        provider rejects writes until a placement add makes it a member
//	-drain  on SIGTERM/SIGINT, migrate this provider's models to the rest
//	        of the deployment (an epoch bump removing it) before exiting;
//	        needs -repair-peers and -deploy-size
//
// -metrics-interval periodically logs the process metrics counters; the
// same snapshot is always available to evostore-ctl via the metrics RPC.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/dedup"
	"repro/internal/frontdoor"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/proto"
	"repro/internal/provider"
	"repro/internal/resilient"
	"repro/internal/rpc"
)

func main() {
	listen := flag.String("listen", ":7070", "TCP listen address")
	id := flag.Int("id", 0, "provider ID (its index in the deployment's address list)")
	data := flag.String("data", "", "persistence directory (empty = in-memory backend)")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second,
		"server-side deadline per request without a caller deadline (0 = none)")
	deploySize := flag.Int("deploy-size", 0,
		"number of providers in the deployment (0 = accept writes for any model)")
	replicas := flag.Int("replicas", 1,
		"deployment replication factor R (with -deploy-size: accept writes only for models whose replica set includes this provider)")
	metricsEvery := flag.Duration("metrics-interval", 0,
		"log a metrics-counter snapshot this often (0 = never)")
	dedupTTL := flag.Duration("dedup-ttl", provider.DefaultDedupTTL,
		"lifetime of request-dedup entries; must cover the clients' retry budget (0 = never expire by age)")
	repairEvery := flag.Duration("repair-interval", 0,
		"run an in-process anti-entropy repairer over the whole deployment this often (0 = off; needs -repair-peers)")
	repairPeers := flag.String("repair-peers", "",
		"comma-separated full deployment address list, in canonical order (required by -repair-interval and -drain)")
	join := flag.Bool("join", false,
		"start as a spare outside the epoch-0 member list (-id may be >= -deploy-size); reject writes until a placement add joins this provider")
	drain := flag.Bool("drain", false,
		"on shutdown, migrate this provider's models to the remaining members before exiting (needs -repair-peers and -deploy-size)")
	throttleOps := flag.Float64("throttle-ops", 0,
		"per-tenant read admission limit in ops/sec (0 = unlimited on this axis; throttling is off when both -throttle-* rates are 0)")
	throttleBytes := flag.Float64("throttle-bytes", 0,
		"per-tenant read admission limit in bytes/sec (0 = unlimited on this axis)")
	throttleWindow := flag.Duration("throttle-window", 0,
		"burst window of the admission buckets: capacity = rate * window (0 = 60s default)")
	hedgedReads := flag.Bool("hedged-reads", false,
		"hedge slow replicated reads on the in-server deployment client: after a health-scaled delay, race the next-best replica (needs -repair-peers)")
	hedgeBudget := flag.Float64("hedge-budget", 0,
		"hedged-read volume cap in hedges/sec (0 = client default; needs -hedged-reads)")
	flag.Parse()

	// Fail fast on inconsistent deployment flags instead of silently
	// clamping: every client and provider of one deployment must agree on
	// these numbers, and a clamp here would hide the disagreement until it
	// corrupts placement.
	if *replicas < 1 {
		log.Fatalf("-replicas %d: the replication factor must be at least 1", *replicas)
	}
	if *deploySize > 0 && *replicas > *deploySize {
		log.Fatalf("-replicas %d exceeds -deploy-size %d: a model cannot have more replicas than the deployment has members", *replicas, *deploySize)
	}
	if *replicas > 1 && *deploySize == 0 {
		log.Fatalf("-replicas %d needs -deploy-size: without the member count the placement guard cannot be armed", *replicas)
	}
	if *id < 0 {
		log.Fatalf("-id %d: provider IDs are non-negative", *id)
	}
	if *join && *deploySize == 0 {
		log.Fatalf("-join needs -deploy-size (the epoch-0 member count this spare is joining)")
	}
	if *deploySize > 0 && *id >= *deploySize && !*join {
		log.Fatalf("-id %d is outside the deployment [0..%d): pass -join to start as a spare awaiting a placement add", *id, *deploySize)
	}
	if *repairPeers != "" {
		n := len(strings.Split(*repairPeers, ","))
		if *deploySize > 0 && n < *deploySize {
			log.Fatalf("-repair-peers lists %d addresses but -deploy-size is %d: the list must cover every member", n, *deploySize)
		}
		if *id >= n {
			log.Fatalf("-repair-peers lists %d addresses but -id is %d: the list must include this provider at its own index", n, *id)
		}
	}
	if *drain && (*repairPeers == "" || *deploySize == 0) {
		log.Fatalf("-drain needs -repair-peers and -deploy-size to run the self-drain migration on shutdown")
	}

	var kv kvstore.KV
	var lsm *kvstore.LSMKV
	var manifest *kvstore.Manifest
	if *data == "" {
		kv = kvstore.NewMemKV(16)
		log.Printf("provider %d: in-memory backend", *id)
	} else {
		// The manifest gate runs before the LSM opens: a directory written
		// by another provider, a newer format, or an unknown feature must
		// refuse service rather than corrupt state it half-understands.
		m, err := kvstore.LoadManifest(*data)
		if err != nil {
			log.Fatalf("loading manifest: %v", err)
		}
		if m != nil && m.ProviderID != uint32(*id) {
			log.Fatalf("manifest at %s belongs to provider %d, not -id %d: refusing to serve another provider's data", *data, m.ProviderID, *id)
		}
		manifest = m
		l, err := kvstore.OpenLSM(*data, kvstore.LSMOptions{})
		if err != nil {
			log.Fatalf("opening LSM store: %v", err)
		}
		defer l.Close()
		lsm = l
		kv = l
		for _, d := range l.WALDamage() {
			log.Printf("provider %d: WARNING: write-ahead log damaged, records lost: %s", *id, d)
		}
		if m != nil {
			log.Printf("provider %d: LSM backend at %s (manifest format %d, placement epoch %d)",
				*id, *data, m.FormatVersion, m.PlacementEpoch)
		} else {
			log.Printf("provider %d: LSM backend at %s (no manifest: first start)", *id, *data)
		}
	}

	cas := dedup.Wrap(kv, dedup.Options{})
	if err := cas.Recover(); err != nil {
		log.Fatalf("recovering chunk refcounts: %v", err)
	}
	kv = cas

	var p *provider.Provider
	if *data != "" {
		dp, err := provider.NewDurable(*id, kv)
		if err != nil {
			log.Fatalf("replaying catalog: %v", err)
		}
		p = dp
		log.Printf("provider %d: durable catalog replayed (%d models)", *id, p.Stats().Models)
	} else {
		p = provider.New(*id, kv)
	}
	p.SetDedupTTL(*dedupTTL)
	if *throttleOps > 0 || *throttleBytes > 0 {
		p.SetThrottle(frontdoor.Limits{
			OpsPerSec:   *throttleOps,
			BytesPerSec: *throttleBytes,
			Window:      *throttleWindow,
		})
		log.Printf("provider %d: per-tenant read throttle armed (%g ops/s, %g B/s, window %s)",
			*id, *throttleOps, *throttleBytes, *throttleWindow)
	}
	if *deploySize > 0 {
		p.SetPlacement(*deploySize, *replicas)
		if *join {
			log.Printf("provider %d: spare awaiting join (deployment %d, R=%d); rejecting writes until a placement add", *id, *deploySize, *replicas)
		} else {
			log.Printf("provider %d: placement guard armed (deployment %d, R=%d)", *id, *deploySize, *replicas)
		}
	}
	if manifest != nil && len(manifest.Placement) > 0 {
		// Resume the placement view the manifest recorded before the crash;
		// SetPlacementState keeps the newest epoch, so this never regresses
		// the epoch-0 table armed above.
		st, err := placement.DecodeState(manifest.Placement)
		if err != nil {
			log.Fatalf("manifest placement: %v", err)
		}
		if st != nil {
			if err := p.SetPlacementState(st); err != nil {
				log.Fatalf("manifest placement: %v", err)
			}
			log.Printf("provider %d: resumed placement epoch %d from manifest", *id, placement.EpochOf(st))
		}
	}
	saveManifest := func(st *placement.State) {}
	if *data != "" {
		saveManifest = func(st *placement.State) {
			m := &kvstore.Manifest{
				FormatVersion:  kvstore.ManifestFormatVersion,
				ProviderID:     uint32(*id),
				PlacementEpoch: placement.EpochOf(st),
				Placement:      placement.EncodeState(st),
				Features:       []string{kvstore.FeatureDurableCatalog, kvstore.FeatureValueLogs, kvstore.FeatureSHA256Chunks},
			}
			if err := kvstore.SaveManifest(*data, m); err != nil {
				log.Printf("provider %d: saving manifest: %v", *id, err)
			}
		}
		p.OnPlacementChange(saveManifest)
		saveManifest(p.PlacementState())
	}
	srv := rpc.NewServer()
	srv.SetRequestTimeout(*reqTimeout)
	p.Register(srv)

	lis, addr, err := rpc.ListenAndServeTCP(*listen, srv)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("provider %d: serving on %s", *id, addr)

	// Restart rejoin: a durable provider announces its recovery to the
	// deployment and adopts the highest placement epoch any peer reached
	// while it was down — serving under a stale epoch would bounce writes
	// until the first wrong-epoch error taught a client to correct it.
	if *data != "" && *repairPeers != "" {
		rejoin(p, *id, *repairPeers, *reqTimeout)
	}

	stopMetrics := make(chan struct{})
	if *metricsEvery > 0 {
		go logMetrics(*id, *metricsEvery, stopMetrics)
	}
	// Optional in-server anti-entropy repair, over a client dialed on the
	// full peer list. One provider (usually provider 0) should run it;
	// concurrent repairers are wasteful but safe.
	repairCtx, stopRepair := context.WithCancel(context.Background())
	defer stopRepair()
	if *repairEvery > 0 {
		if *repairPeers == "" {
			log.Fatalf("-repair-interval needs -repair-peers (the full deployment address list)")
		}
		var conns []rpc.Conn
		for _, a := range strings.Split(*repairPeers, ",") {
			conns = append(conns, rpc.NewPool(strings.TrimSpace(a), 1, rpc.DialTCP))
		}
		conns = resilient.WrapAll(conns, resilient.Options{
			DefaultTimeout: *reqTimeout,
			Retryable:      proto.Retryable,
		})
		copts := []client.Option{client.WithReplicas(*replicas)}
		if *deploySize > 0 {
			// The peer list may include spares beyond the member list; the
			// explicit table keeps them out of the epoch-0 placement.
			copts = []client.Option{client.WithPlacement(placement.New(*deploySize, *replicas))}
		}
		if *hedgedReads {
			copts = append(copts, client.WithHedgedReads(0, *hedgeBudget))
		}
		cli := client.New(conns, copts...)
		go func() {
			// Adopt whatever epoch the deployment has reached before the
			// first sweep; later bumps are adopted off wrong-epoch errors.
			if _, err := cli.SyncPlacement(repairCtx); err != nil {
				log.Printf("provider %d: placement sync: %v", *id, err)
			}
			client.NewRepairer(cli).Run(repairCtx, *repairEvery)
		}()
		log.Printf("provider %d: anti-entropy repairer running every %s over %d peers",
			*id, *repairEvery, len(conns))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	stopRepair()
	close(stopMetrics)
	if *drain {
		log.Printf("provider %d: draining before shutdown", *id)
		if err := drainSelf(*id, *deploySize, *replicas, *repairPeers, *reqTimeout); err != nil {
			log.Printf("provider %d: drain failed (data stays; re-run the drain via evostore-ctl placement drain): %v", *id, err)
		}
	}
	log.Printf("provider %d: shutting down", *id)
	lis.Close()
	if lsm != nil {
		// Clean shutdown: flush the memtable to an SSTable and persist the
		// final placement view, so the next start replays an empty WAL and
		// resumes the exact epoch this process last served under.
		if err := lsm.Flush(); err != nil {
			log.Printf("provider %d: final flush: %v", *id, err)
		}
		saveManifest(p.PlacementState())
	}
	st := p.Stats()
	log.Printf("provider %d: %d models, %d segments, %d bytes",
		*id, st.Models, st.Segments, st.SegmentBytes)
}

// rejoin sends the restart-rejoin handshake (proto.RPCHello) to every
// repair peer and adopts the highest placement epoch heard. Peer failures
// are logged and skipped — a rejoin against a half-up deployment still
// converges, and any epoch missed here is adopted later off wrong-epoch
// errors. The adoption goes through SetPlacementState, so it also rewrites
// the manifest via the OnPlacementChange hook.
func rejoin(p *provider.Provider, id int, peers string, timeout time.Duration) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	st := p.PlacementState()
	req := rpc.Message{Meta: proto.EncodeHello(&proto.Hello{
		Provider: uint32(id),
		Format:   kvstore.ManifestFormatVersion,
		Epoch:    placement.EpochOf(st),
		Models:   p.Stats().Models,
	})}
	var best *placement.State
	for i, a := range strings.Split(peers, ",") {
		if i == id {
			continue
		}
		a = strings.TrimSpace(a)
		c, err := rpc.DialTCP(a)
		if err != nil {
			log.Printf("provider %d: rejoin: dial %s: %v", id, a, err)
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		resp, err := c.Call(ctx, proto.RPCHello, req)
		cancel()
		c.Close()
		if err != nil {
			log.Printf("provider %d: rejoin: hello %s: %v", id, a, err)
			continue
		}
		hr, err := proto.DecodeHelloResp(resp.Meta)
		if err != nil || len(hr.Placement) == 0 {
			continue
		}
		pst, err := placement.DecodeState(hr.Placement)
		if err != nil || pst == nil {
			continue
		}
		if best == nil || placement.EpochOf(pst) > placement.EpochOf(best) {
			best = pst
		}
	}
	if best != nil && placement.EpochOf(best) > placement.EpochOf(st) {
		if err := p.SetPlacementState(best); err != nil {
			log.Printf("provider %d: rejoin: adopting epoch %d: %v", id, placement.EpochOf(best), err)
			return
		}
		log.Printf("provider %d: rejoined at placement epoch %d", id, placement.EpochOf(best))
	}
}

// drainSelf retires this provider from the placement table: it syncs the
// deployment's current epoch, builds the successor table without this
// provider, and runs the rebalancer — migrating every model it owns to
// the surviving members — before the process exits. The migration is
// convergent; if it fails partway the deployment is left dual-epoch and
// an operator can finish it with evostore-ctl placement drain.
func drainSelf(id, deploySize, replicas int, peers string, timeout time.Duration) error {
	var conns []rpc.Conn
	for _, a := range strings.Split(peers, ",") {
		conns = append(conns, rpc.NewPool(strings.TrimSpace(a), 1, rpc.DialTCP))
	}
	conns = resilient.WrapAll(conns, resilient.Options{
		DefaultTimeout: timeout,
		Retryable:      proto.Retryable,
	})
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	cli := client.New(conns, client.WithPlacement(placement.New(deploySize, replicas)))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	st, err := cli.SyncPlacement(ctx)
	if err != nil {
		return err
	}
	next, err := st.Cur.WithoutMember(id)
	if err != nil {
		return err
	}
	stats, err := client.NewRebalancer(cli).Rebalance(ctx, next)
	if err != nil {
		return err
	}
	log.Printf("provider %d: drained: %s", id, stats)
	return nil
}

// logMetrics periodically logs the non-zero metrics counters (retries,
// breaker transitions, replica traffic) in one compact line, so operators
// tailing the log see what the middleware is doing without polling the
// metrics RPC.
func logMetrics(id int, every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			snap := metrics.Default.Snapshot()
			parts := make([]string, 0, len(snap))
			for name, v := range snap {
				if v != 0 {
					parts = append(parts, name+"="+strconv.FormatUint(v, 10))
				}
			}
			sort.Strings(parts)
			if len(parts) == 0 {
				continue
			}
			log.Printf("provider %d: metrics %s", id, strings.Join(parts, " "))
		}
	}
}
