package provider

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/kvstore"
	"repro/internal/ownermap"
	"repro/internal/placement"
	"repro/internal/proto"
	"repro/internal/rpc"
)

// TestPlacementGuard arms the replica-placement guard on one provider of a
// notional 4-provider, R=2 deployment and checks every write RPC accepts
// models whose replica set includes it and rejects the rest — the defense
// against a client configured with the wrong address list or R.
func TestPlacementGuard(t *testing.T) {
	p := New(1, kvstore.NewMemKV(4))
	p.SetPlacement(4, 2)
	g := chainGraph(1, 2, 3)

	// Provider 1 replicates models homed on providers 0 and 1.
	for _, id := range []ownermap.ModelID{4, 5} { // homes 0 and 1
		req, segs := storeReq(id, 1, 0.5, g)
		if err := p.StoreModel(req, segs); err != nil {
			t.Errorf("store of in-set model %d rejected: %v", id, err)
		}
	}
	for _, id := range []ownermap.ModelID{2, 3} { // homes 2 and 3 → sets {2,3}, {3,0}
		req, segs := storeReq(id, 1, 0.5, g)
		err := p.StoreModel(req, segs)
		if err == nil {
			t.Fatalf("store of out-of-set model %d accepted", id)
		}
		if !strings.Contains(err.Error(), "not a replica") {
			t.Errorf("model %d: unexpected rejection: %v", id, err)
		}
	}

	// The guard covers every mutation, keyed by the owner being touched.
	vs := []graph.VertexID{0}
	if err := p.IncRef(5, vs); err != nil {
		t.Errorf("IncRef on in-set owner: %v", err)
	}
	if err := p.IncRef(2, vs); err == nil {
		t.Error("IncRef on out-of-set owner accepted")
	}
	if _, err := p.DecRef(2, vs); err == nil {
		t.Error("DecRef on out-of-set owner accepted")
	}
	if _, err := p.Retire(3); err == nil {
		t.Error("Retire of out-of-set model accepted")
	}

	// The wrap-around replica of a high-home model: provider 0 of the same
	// deployment accepts model 3 (home 3, set {3, 0}).
	p0 := New(0, kvstore.NewMemKV(4))
	p0.SetPlacement(4, 2)
	req, segs := storeReq(3, 1, 0.5, g)
	if err := p0.StoreModel(req, segs); err != nil {
		t.Errorf("wrap-around replica rejected model 3: %v", err)
	}

	// Disarmed (deploySize 0, the default) providers accept everything —
	// the pre-replication behavior.
	p2 := New(0, kvstore.NewMemKV(4))
	req, segs = storeReq(2, 1, 0.5, g)
	if err := p2.StoreModel(req, segs); err != nil {
		t.Errorf("unguarded provider rejected a write: %v", err)
	}
}

// TestHelloAnswersPlacementAndModelCount drives the restart-rejoin
// handshake through a registered server: the answer names the responder,
// its manifest format and its installed placement epoch, counts its
// cataloged models, and carries the installed state itself. A hello with
// a trailing byte is refused.
func TestHelloAnswersPlacementAndModelCount(t *testing.T) {
	p := New(2, kvstore.NewMemKV(4))
	g := chainGraph(1, 2)
	for _, id := range []ownermap.ModelID{4, 9} {
		req, segs := storeReq(id, 1, 0.5, g)
		if err := p.StoreModel(req, segs); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := placement.Make(5, []int{0, 1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := &placement.State{Cur: tbl}
	if err := p.SetPlacementState(st); err != nil {
		t.Fatal(err)
	}
	net := rpc.NewInprocNet()
	srv := rpc.NewServer()
	p.Register(srv)
	if err := net.Listen("p", srv); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("p")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	hello := proto.EncodeHello(&proto.Hello{Provider: 0, Format: kvstore.ManifestFormatVersion, Epoch: 1})
	resp, err := conn.Call(ctx, proto.RPCHello, rpc.Message{Meta: hello})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := proto.DecodeHelloResp(resp.Meta)
	if err != nil {
		t.Fatal(err)
	}
	want := proto.Hello{Provider: 2, Format: kvstore.ManifestFormatVersion, Epoch: 5, Models: 2}
	if hr.Hello != want {
		t.Errorf("hello answer %+v, want %+v", hr.Hello, want)
	}
	if !bytes.Equal(hr.Placement, placement.EncodeState(st)) {
		t.Error("hello answer does not carry the installed placement state")
	}
	if _, err := conn.Call(ctx, proto.RPCHello, rpc.Message{Meta: append(hello, 0)}); err == nil {
		t.Error("hello with a trailing byte was answered")
	}
}
