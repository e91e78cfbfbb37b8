package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dedup"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/provider"
	"repro/internal/resilient"
	"repro/internal/rpc"
)

// The deployment under test is a constant: the benchmark has no knob on the
// system. It is what four `evostore-server -data DIR -dedup -deploy-size 4
// -replicas 3` processes and one attached client assemble, in one process.
const (
	numProviders     = 4
	numReplicas      = 3
	connsPerProvider = 2
	numClients       = 2                // closed-loop client goroutines; NAS workers wait for each reply
	requestTimeout   = 30 * time.Second // evostore-server's -request-timeout default

	flushPolicy = "kvstore.LSMOptions{} defaults: memtable 4 MiB, full compaction after 6 tables, " +
		"WAL Sync at the end of every catalog mutation"
)

// rpcNames is every handler provider.Register installs; the traced
// deployment relays each of them.
var rpcNames = []string{
	proto.RPCStoreModel, proto.RPCGetMeta, proto.RPCReadSegments, proto.RPCIncRef, proto.RPCDecRef,
	proto.RPCRetire, proto.RPCLCPQuery, proto.RPCListModels, proto.RPCStats, proto.RPCMetrics,
	proto.RPCRepairList, proto.RPCDigest, proto.RPCRepairPull, proto.RPCRepairApply,
	proto.RPCPlacement, proto.RPCSetPlacement, proto.RPCEvict, proto.RPCHello,
}

// node is one provider of the deployment.
type node struct {
	lsm *kvstore.LSMKV
	cas *dedup.KV
	srv *rpc.Server // the TCP-facing server
	lis net.Listener
}

type deployment struct {
	dir   string
	nodes []*node
	repo  *core.Repository
	reg   *metrics.Registry // private: client, resilient and provider counters of this deployment only
	rec   *recorder         // nil when tracing is off

	// The watcher sees a full compaction from outside as a drop in
	// LSMKV.TableCount and counts them per provider.
	stopWatch chan struct{}
	watchDone chan struct{}
	compacted []atomic.Int64
}

// deploy assembles the deployment on fresh directories under dataRoot. With
// a recorder, the span decorators sit at the conn, handler and kv seams;
// without one, nothing of the benchmark's is on any path.
func deploy(dataRoot string, rec *recorder) (_ *deployment, err error) {
	dir, err := os.MkdirTemp(dataRoot, "deploy-")
	if err != nil {
		return nil, err
	}
	d := &deployment{dir: dir, reg: metrics.NewRegistry(), rec: rec}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	conns := make([]rpc.Conn, numProviders)
	for i := range conns {
		n := &node{}
		d.nodes = append(d.nodes, n)
		nodeID := uint8(i + 1)
		if n.lsm, err = kvstore.OpenLSM(filepath.Join(dir, fmt.Sprintf("p%d", i)), kvstore.LSMOptions{}); err != nil {
			return nil, err
		}
		var kv kvstore.KV = n.lsm
		if rec != nil {
			kv = traceKV(kv, rec, layerKVPhysical, nodeID)
		}
		n.cas = dedup.Wrap(kv, dedup.Options{})
		kv = n.cas
		if rec != nil {
			kv = traceKV(kv, rec, layerKVLogical, nodeID)
		}
		p, err := provider.NewDurable(i, kv)
		if err != nil {
			return nil, err
		}
		p.SetMetricsRegistry(d.reg)
		p.SetPlacement(numProviders, numReplicas)
		n.srv = rpc.NewServer()
		p.Register(n.srv)
		if rec != nil {
			// The provider's own server moves behind an in-process hop and
			// the TCP-facing server holds only timing relays.
			inproc := rpc.NewInprocNet()
			if err = inproc.Listen("provider", n.srv); err != nil {
				return nil, err
			}
			inner, err := inproc.Dial("provider")
			if err != nil {
				return nil, err
			}
			n.srv = rpc.NewServer()
			for _, name := range rpcNames {
				n.srv.Register(name, relay(rec, nodeID, inner, name))
			}
		}
		n.srv.SetRequestTimeout(requestTimeout)
		var addr string
		if n.lis, addr, err = rpc.ListenAndServeTCP("127.0.0.1:0", n.srv); err != nil {
			return nil, err
		}
		conns[i] = rpc.NewPool(addr, connsPerProvider, rpc.DialTCP)
		if rec != nil {
			conns[i] = &tracedConn{Conn: conns[i], rec: rec, node: nodeID}
		}
	}
	conns = resilient.WrapAll(conns, resilient.Options{Retryable: proto.Retryable, Registry: d.reg})
	d.repo = core.Attach(conns, client.WithReplicas(numReplicas), client.WithRegistry(d.reg))
	d.stopWatch, d.watchDone = make(chan struct{}), make(chan struct{})
	d.compacted = make([]atomic.Int64, numProviders)
	go d.watchCompactions()
	return d, nil
}

// watchCompactions polls the table counts. A store compacts once it holds
// more than six tables and needs six more 4 MiB flushes before the next,
// so a poll every few milliseconds misses none.
func (d *deployment) watchCompactions() {
	defer close(d.watchDone)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	last := make([]int, len(d.nodes))
	for {
		select {
		case <-d.stopWatch:
			return
		case <-tick.C:
			for i, n := range d.nodes {
				tc := n.lsm.TableCount()
				if tc < last[i] {
					d.compacted[i].Add(1)
				}
				last[i] = tc
			}
		}
	}
}

// compactions returns the full compactions seen so far, per provider.
func (d *deployment) compactions() []int {
	out := make([]int, len(d.compacted))
	for i := range d.compacted {
		out[i] = int(d.compacted[i].Load())
	}
	return out
}

// close stops the deployment and removes its directories.
func (d *deployment) close() error {
	var errs []error
	if d.stopWatch != nil {
		close(d.stopWatch)
		<-d.watchDone
	}
	if d.repo != nil {
		errs = append(errs, d.repo.Close())
	}
	for _, n := range d.nodes {
		if n.lis != nil {
			errs = append(errs, n.lis.Close())
		}
		if n.lsm != nil {
			errs = append(errs, n.lsm.Close())
		}
	}
	return errors.Join(append(errs, os.RemoveAll(d.dir))...)
}

// settle flushes and fully compacts every store, so that what follows reads
// one table per provider whatever the flush timing of the writes before was.
func (d *deployment) settle() error {
	for _, n := range d.nodes {
		if err := n.lsm.Flush(); err != nil {
			return err
		}
		if err := n.lsm.Compact(); err != nil {
			return err
		}
	}
	return nil
}

// storedBytes is what the stores physically hold: Σ KV.SizeBytes().
func (d *deployment) storedBytes() int64 {
	var n int64
	for _, nd := range d.nodes {
		n += nd.cas.SizeBytes()
	}
	return n
}

// counts is a snapshot of the counters that exist in the program already.
type counts struct {
	reg       map[string]uint64
	calls     uint64 // Σ rpc.Server.Stats().Calls
	wireBytes uint64 // Σ BulkInBytes + BulkOutBytes
	casHits   uint64 // Σ dedup.KV.Stats().DedupHits
}

func (d *deployment) counts() counts {
	c := counts{reg: d.reg.Snapshot()}
	for _, n := range d.nodes {
		st := n.srv.Stats()
		c.calls += st.Calls
		c.wireBytes += st.BulkInBytes + st.BulkOutBytes
		c.casHits += n.cas.Stats().DedupHits
	}
	return c
}
