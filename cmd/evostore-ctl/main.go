// Command evostore-ctl inspects a running EvoStore deployment.
//
// Usage:
//
//	evostore-ctl -providers host1:7070,host2:7070 list
//	evostore-ctl -providers ... stats
//	evostore-ctl -providers ... lineage <modelID>
//	evostore-ctl -providers ... owners <modelID>
//	evostore-ctl -providers ... mrca <modelID> <modelID>
//	evostore-ctl -providers ... retire <modelID>
//	evostore-ctl -providers ... load <modelID>        # fetch all segments, print checksum
//	evostore-ctl -providers ... arch <modelID>        # Graphviz DOT to stdout
//	evostore-ctl -providers ... metrics               # per-provider counters
//	evostore-ctl -providers ... health                # per-provider health scores and latency quantiles
//	evostore-ctl -providers ... heat                  # per-model read/write heat
//	evostore-ctl -providers ... autobalance [flags]   # heat-driven rebalance cycles
//	evostore-ctl -providers ... replicas <modelID>    # replica placement
//	evostore-ctl -providers ... digest <modelID>      # per-replica repair digests
//	evostore-ctl -providers ... check                 # list diverged replica sets
//	evostore-ctl -providers ... repair                # one anti-entropy pass
//	evostore-ctl -providers ... placement show        # per-provider placement views
//	evostore-ctl -providers ... placement add <id>    # join provider <id> (epoch bump + migration)
//	evostore-ctl -providers ... placement remove <id> # retire provider <id> (alias: drain)
//
// The -providers list must match the deployment's canonical order, and
// -replicas must match the deployment's replication factor (reads fail
// over between replicas; mutations like retire fan out to all of them).
// When the list includes spares that are not yet placement members, pass
// -deploy-size with the member count. The tool syncs the deployment's
// current placement epoch before running any subcommand.
package main

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/heat"
	"repro/internal/metrics"
	"repro/internal/ownermap"
	"repro/internal/placement"
	"repro/internal/proto"
	"repro/internal/resilient"
	"repro/internal/rpc"
)

func main() {
	providers := flag.String("providers", "127.0.0.1:7070", "comma-separated provider addresses, in deployment order")
	timeout := flag.Duration("timeout", 10*time.Second, "per-call deadline (0 = none)")
	retries := flag.Int("retries", 3, "attempts per call, including the first")
	threshold := flag.Int("breaker-threshold", 5, "consecutive transport failures that open a provider's circuit breaker (-1 = off)")
	replicas := flag.Int("replicas", 1, "deployment replication factor R (must match every other client)")
	deploySize := flag.Int("deploy-size", 0, "epoch-0 member count when -providers includes spares (0 = every address is a member)")
	poolSize := flag.Int("pool", 2, "TCP connections per provider (concurrent calls spread across them)")
	tenant := flag.String("tenant", "", "tenant ID stamped on reads, charged against the providers' per-tenant admission buckets (-throttle-* on evostore-server)")
	segCache := flag.Int64("seg-cache", 0, "client segment-cache bound in bytes (0 = 64 MiB default, negative = caching off)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: evostore-ctl -providers a,b,c {list|stats|lineage|owners|mrca|retire|load|arch|metrics|health|heat|autobalance|replicas|digest|check|repair|placement} [args]")
		os.Exit(2)
	}

	var conns []rpc.Conn
	for _, addr := range strings.Split(*providers, ",") {
		conns = append(conns, rpc.NewPool(strings.TrimSpace(addr), *poolSize, rpc.DialTCP))
	}
	if *timeout == 0 {
		*timeout = -1 // Options treats negative as "no default deadline"
	}
	conns = resilient.WrapAll(conns, resilient.Options{
		DefaultTimeout: *timeout,
		MaxAttempts:    *retries,
		Threshold:      *threshold,
		Retryable:      proto.Retryable,
	})
	copts := []client.Option{client.WithReplicas(*replicas)}
	if *deploySize > 0 {
		copts = []client.Option{client.WithPlacement(placement.New(*deploySize, *replicas))}
	}
	if *tenant != "" {
		copts = append(copts, client.WithTenant(*tenant))
	}
	if *segCache != 0 {
		copts = append(copts, client.WithSegCacheBytes(*segCache))
	}
	cli := client.New(conns, copts...)
	ctx := context.Background()

	// Adopt the deployment's current placement epoch before doing anything;
	// best-effort (a provider that predates the placement RPC just means
	// the configured epoch-0 table stands).
	if _, err := cli.SyncPlacement(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "evostore-ctl: placement sync:", err)
	}

	if err := run(ctx, cli, conns, args); err != nil {
		fmt.Fprintln(os.Stderr, "evostore-ctl:", err)
		os.Exit(1)
	}
}

func parseID(s string) (ownermap.ModelID, error) {
	n, err := strconv.ParseUint(s, 10, 64)
	return ownermap.ModelID(n), err
}

func run(ctx context.Context, cli *client.Client, conns []rpc.Conn, args []string) error {
	switch args[0] {
	case "list":
		ids, err := cli.ListModels(ctx)
		if err != nil {
			return err
		}
		tbl := metrics.NewTable("Model", "Provider", "Vertices", "Quality", "Lineage depth")
		for _, id := range ids {
			meta, err := cli.GetMeta(ctx, id)
			if err != nil {
				return err
			}
			tbl.Add(uint64(id), cli.HomeProvider(id), meta.Graph.NumVertices(),
				meta.Quality, len(meta.OwnerMap.Lineage()))
		}
		tbl.Render(os.Stdout)
		return nil

	case "stats":
		st, err := cli.Stats(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("models:        %d\n", st.Models)
		fmt.Printf("segments:      %d\n", st.Segments)
		fmt.Printf("segment bytes: %s\n", metrics.HumanBytes(int64(st.SegmentBytes)))
		fmt.Printf("live refs:     %d\n", st.LiveRefs)
		return nil

	case "lineage":
		if len(args) < 2 {
			return fmt.Errorf("lineage needs a model ID")
		}
		id, err := parseID(args[1])
		if err != nil {
			return err
		}
		chain, err := cli.Lineage(ctx, id)
		if err != nil {
			return err
		}
		for i, a := range chain {
			fmt.Printf("%s%d\n", strings.Repeat("  ", i), uint64(a))
		}
		return nil

	case "owners":
		if len(args) < 2 {
			return fmt.Errorf("owners needs a model ID")
		}
		id, err := parseID(args[1])
		if err != nil {
			return err
		}
		meta, err := cli.GetMeta(ctx, id)
		if err != nil {
			return err
		}
		tbl := metrics.NewTable("Owner", "Seq", "Vertices", "Bytes")
		for _, g := range meta.OwnerMap.Owners() {
			var bytes int64
			for _, v := range g.Vertices {
				bytes += meta.Graph.Vertices[v].ParamBytes
			}
			tbl.Add(uint64(g.Owner), g.Seq, len(g.Vertices), metrics.HumanBytes(bytes))
		}
		tbl.Render(os.Stdout)
		return nil

	case "mrca":
		if len(args) < 3 {
			return fmt.Errorf("mrca needs two model IDs")
		}
		a, err := parseID(args[1])
		if err != nil {
			return err
		}
		b, err := parseID(args[2])
		if err != nil {
			return err
		}
		anc, ok, err := cli.CommonAncestor(ctx, a, b)
		if err != nil {
			return err
		}
		if !ok {
			fmt.Println("no common ancestor")
			return nil
		}
		fmt.Printf("most recent common ancestor: %d\n", uint64(anc))
		return nil

	case "retire":
		if len(args) < 2 {
			return fmt.Errorf("retire needs a model ID")
		}
		id, err := parseID(args[1])
		if err != nil {
			return err
		}
		freed, err := cli.Retire(ctx, id)
		if err != nil {
			return err
		}
		fmt.Printf("retired %d, freed %d segments\n", uint64(id), freed)
		return nil

	case "load":
		if len(args) < 2 {
			return fmt.Errorf("load needs a model ID")
		}
		id, err := parseID(args[1])
		if err != nil {
			return err
		}
		start := time.Now()
		data, err := cli.Load(ctx, id)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		sum := fnv.New64a()
		var total int64
		for _, seg := range data.Segments {
			sum.Write(seg)
			total += int64(len(seg))
		}
		mbps := 0.0
		if elapsed > 0 {
			mbps = float64(total) / 1e6 / elapsed.Seconds()
		}
		fmt.Printf("model %d: %d segments, %d bytes, fnv64a %016x, %.1f MB/s\n",
			uint64(id), len(data.Segments), total, sum.Sum64(), mbps)
		return nil

	case "arch":
		if len(args) < 2 {
			return fmt.Errorf("arch needs a model ID")
		}
		id, err := parseID(args[1])
		if err != nil {
			return err
		}
		meta, err := cli.GetMeta(ctx, id)
		if err != nil {
			return err
		}
		return meta.Graph.WriteDOT(os.Stdout, fmt.Sprintf("model_%d", uint64(id)), nil)

	case "metrics":
		snaps, _, errs := cli.Metrics(ctx)
		tbl := metrics.NewTable("Provider", "Counter", "Value")
		for i, snap := range snaps {
			if errs[i] != nil {
				fmt.Fprintf(os.Stderr, "provider %d: %v\n", i, errs[i])
				continue
			}
			names := make([]string, 0, len(snap))
			for name, v := range snap {
				if v != 0 {
					names = append(names, name)
				}
			}
			sort.Strings(names)
			for _, name := range names {
				tbl.Add(i, name, snap[name])
			}
		}
		tbl.Render(os.Stdout)
		return nil

	case "health":
		// Probe every provider a few times so fresh connections have
		// latency/error samples to score; the metrics broadcast touches
		// each provider once per round.
		for i := 0; i < 5; i++ {
			cli.Metrics(ctx) // per-provider failures are exactly what we want scored
		}
		tbl := metrics.NewTable("Provider", "Addr", "Breaker", "Score", "p50", "p95", "ErrRate")
		for i, c := range conns {
			rc, ok := c.(*resilient.Conn)
			if !ok {
				tbl.Add(i, c.Addr(), "-", "-", "-", "-", "-")
				continue
			}
			tbl.Add(i, rc.Addr(), rc.BreakerState(),
				fmt.Sprintf("%.3f", rc.Score()),
				rc.LatencyPercentile(0.50).Round(time.Microsecond),
				rc.LatencyPercentile(0.95).Round(time.Microsecond),
				fmt.Sprintf("%.3f", rc.ErrorRate()))
		}
		tbl.Render(os.Stdout)
		return nil

	case "replicas":
		if len(args) < 2 {
			return fmt.Errorf("replicas needs a model ID")
		}
		id, err := parseID(args[1])
		if err != nil {
			return err
		}
		set := cli.ReplicaSet(id)
		fmt.Printf("model %d: home provider %d, replica set %v (R=%d)\n",
			uint64(id), cli.HomeProvider(id), set, cli.Replicas())
		return nil

	case "digest":
		if len(args) < 2 {
			return fmt.Errorf("digest needs a model ID")
		}
		id, err := parseID(args[1])
		if err != nil {
			return err
		}
		rep := client.NewRepairer(cli)
		set, ds, err := rep.ModelDigests(ctx, id)
		if err != nil {
			return err
		}
		tbl := metrics.NewTable("Provider", "Present", "Retired", "Seq", "MetaHash", "RefHash", "SegHash", "LiveRefs", "Journal")
		for i, d := range ds {
			tbl.Add(set[i], d.Present, d.Retired, d.Seq,
				fmt.Sprintf("%016x", d.MetaHash), fmt.Sprintf("%016x", d.RefHash),
				fmt.Sprintf("%016x", d.SegHash), d.LiveRefs, d.Journal)
		}
		tbl.Render(os.Stdout)
		converged := true
		for _, d := range ds[1:] {
			if !ds[0].Converged(d) {
				converged = false
			}
		}
		if converged {
			fmt.Println("replicas converged")
		} else {
			fmt.Println("replicas DIVERGED (run `repair` to converge them)")
		}
		return nil

	case "check":
		diverged, err := client.NewRepairer(cli).Check(ctx)
		if err != nil {
			return err
		}
		if len(diverged) == 0 {
			fmt.Println("all replica sets converged")
			return nil
		}
		for _, id := range diverged {
			fmt.Printf("diverged: model %d (replica set %v)\n", uint64(id), cli.ReplicaSet(id))
		}
		return fmt.Errorf("%d replica set(s) diverged", len(diverged))

	case "repair":
		stats, err := client.NewRepairer(cli).RepairAll(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("checked %d model(s): repaired %d, skipped %d (unhealthy replicas)\n",
			stats.Checked, stats.Repaired, stats.Skipped)
		return nil

	case "heat":
		_, heats, errs := cli.Metrics(ctx)
		tbl := metrics.NewTable("Provider", "Model", "Read B/s", "Write B/s")
		for pi, samples := range heats {
			if errs[pi] != nil {
				fmt.Fprintf(os.Stderr, "provider %d: %v\n", pi, errs[pi])
				continue
			}
			for _, h := range samples {
				tbl.Add(pi, uint64(h.Model), fmt.Sprintf("%.1f", h.ReadBps), fmt.Sprintf("%.1f", h.WriteBps))
			}
		}
		tbl.Render(os.Stdout)
		agg := heat.Aggregate(heats)
		ids := make([]ownermap.ModelID, 0, len(agg))
		for id := range agg {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return agg[ids[i]] > agg[ids[j]] })
		for _, id := range ids {
			fmt.Printf("model %d: %.1f B/s total (replicas %v)\n", uint64(id), agg[id], cli.ReplicaSet(id))
		}
		return nil

	case "autobalance":
		return autobalanceCmd(ctx, cli, args[1:])

	case "placement":
		return placementCmd(ctx, cli, conns, args[1:])
	}
	return fmt.Errorf("unknown subcommand %q", args[0])
}

// autobalanceCmd runs heat-driven rebalance cycles from the operator's
// seat: each cycle snapshots the deployment's per-model heat, plans the
// override set and — when it differs from the live table — drives one
// epoch bump. With -cycles 1 (the default) it is a one-shot "rebalance by
// heat now"; larger counts loop like the in-server controller.
func autobalanceCmd(ctx context.Context, cli *client.Client, args []string) error {
	fs := flag.NewFlagSet("autobalance", flag.ContinueOnError)
	hot := fs.Float64("hot", 0, "widen threshold as a multiple of mean heat (0 = 4)")
	cold := fs.Float64("cold", 0, "pack threshold as a multiple of mean heat (0 = 0.25)")
	widen := fs.Int("widen", 0, "replica count for hot models (0 = base R + 1)")
	pack := fs.Int("pack", 0, "replica count for cold models (0 = packing off)")
	budget := fs.Float64("budget", 0, "migration payload budget in bytes/sec (0 = unpaced)")
	maxChanges := fs.Int("max-changes", 0, "max override changes per cycle (0 = 32)")
	cycles := fs.Int("cycles", 1, "controller cycles to run")
	interval := fs.Duration("interval", 5*time.Second, "pause between cycles when -cycles > 1")
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg := metrics.NewRegistry()
	ctl := heat.New(cli, heat.Config{
		HotFactor:         *hot,
		ColdFactor:        *cold,
		WidenTo:           *widen,
		PackTo:            *pack,
		MaxChanges:        *maxChanges,
		BudgetBytesPerSec: *budget,
	}, reg)
	for i := 0; i < *cycles; i++ {
		if i > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(*interval):
			}
		}
		before := cli.PlacementTable().Epoch
		if err := ctl.Step(ctx); err != nil {
			return err
		}
		tbl := cli.PlacementTable()
		if tbl.Epoch == before {
			fmt.Printf("cycle %d: placement already matches the heat plan (%s)\n", i+1, tbl)
		} else {
			fmt.Printf("cycle %d: rebalanced to %s\n", i+1, tbl)
		}
	}
	if n := reg.Counter("heat.lost_race").Load(); n > 0 {
		fmt.Printf("lost %d epoch race(s) to a concurrent rebalance; re-synced and re-planned\n", n)
	}
	return nil
}

// placementCmd inspects and drives the epoch-versioned placement table:
// show prints every provider's view, add/remove (drain is an alias for
// remove) bump the epoch and run the full migration — data moves to the
// new replica sets while the deployment keeps serving, then departed
// providers are emptied.
func placementCmd(ctx context.Context, cli *client.Client, conns []rpc.Conn, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("placement needs a subcommand: show | add <providerID> | remove <providerID> | drain <providerID>")
	}
	switch args[0] {
	case "show":
		results := rpc.Broadcast(ctx, conns, proto.RPCPlacement, rpc.Message{})
		tbl := metrics.NewTable("Provider", "View")
		for i, r := range results {
			if r.Err != nil {
				tbl.Add(i, fmt.Sprintf("unreachable: %v", r.Err))
				continue
			}
			st, err := placement.DecodeState(r.Resp.Meta)
			switch {
			case err != nil:
				tbl.Add(i, fmt.Sprintf("undecodable: %v", err))
			case st == nil || st.Cur == nil:
				tbl.Add(i, "unguarded (accepts any model)")
			case st.Migrating():
				tbl.Add(i, fmt.Sprintf("%s migrating from %s", st.Cur, st.Prev))
			default:
				tbl.Add(i, st.Cur.String())
			}
		}
		tbl.Render(os.Stdout)
		st := cli.Placement()
		fmt.Printf("client view: %s", st.Cur)
		if st.Migrating() {
			fmt.Printf(" migrating from %s", st.Prev)
		}
		fmt.Println()
		return nil

	case "add", "remove", "drain":
		if len(args) < 2 {
			return fmt.Errorf("placement %s needs a provider ID", args[0])
		}
		pid, err := strconv.Atoi(args[1])
		if err != nil {
			return fmt.Errorf("provider ID %q: %w", args[1], err)
		}
		cur := cli.PlacementTable()
		var next *placement.Table
		if args[0] == "add" {
			if pid >= len(conns) {
				return fmt.Errorf("provider %d is not in the -providers list (%d addresses): the joiner must be dialable", pid, len(conns))
			}
			next, err = cur.WithMember(pid)
		} else {
			next, err = cur.WithoutMember(pid)
		}
		if err != nil {
			return err
		}
		fmt.Printf("migrating %s -> %s\n", cur, next)
		stats, err := client.NewRebalancer(cli).Rebalance(ctx, next)
		if err != nil {
			return err
		}
		fmt.Println(stats)
		return nil
	}
	return fmt.Errorf("unknown placement subcommand %q", args[0])
}
