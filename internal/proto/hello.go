package proto

import "repro/internal/wire"

// Restart-rejoin handshake (RPCHello). A provider that reopened its data
// dir after a crash sends a Hello — its identity, the manifest format it
// runs, and the placement epoch its manifest recorded — to each repair
// peer. The peer answers with its own Hello plus its encoded placement
// state; the rejoiner adopts the highest-epoch state it hears (epochs are
// forward-only on install, so adopting is convergent) and persists it
// back into its manifest. The RPC is idempotent and side-effect free on
// the responder.

// Hello identifies one provider's recovery state.
type Hello struct {
	// Provider is the sender's provider index.
	Provider uint32
	// Format is the manifest format version the sender runs
	// (kvstore.ManifestFormatVersion).
	Format uint32
	// Epoch is the current placement epoch of the sender's view; 0 means
	// no placement armed (or an epoch-0 legacy table).
	Epoch uint64
	// Models is the sender's cataloged model count (diagnostic only).
	Models uint64
}

func (h *Hello) appendTo(w *wire.Writer) {
	w.U32(h.Provider)
	w.U32(h.Format)
	w.U64(h.Epoch)
	w.U64(h.Models)
}

func readHello(r *wire.Reader) Hello {
	return Hello{
		Provider: r.U32(),
		Format:   r.U32(),
		Epoch:    r.U64(),
		Models:   r.U64(),
	}
}

// EncodeHello serializes a Hello request.
func EncodeHello(h *Hello) []byte {
	w := wire.NewWriter(24)
	h.appendTo(w)
	return w.Bytes()
}

// DecodeHello parses a Hello request.
func DecodeHello(b []byte) (*Hello, error) {
	r := wire.NewReader(b)
	h := readHello(r)
	if r.Err() != nil || r.Remaining() != 0 {
		return nil, wire.ErrTruncated
	}
	return &h, nil
}

// HelloResp is the responder's side of the handshake: its own Hello plus
// its encoded placement state (placement.EncodeState bytes, opaque here).
type HelloResp struct {
	Hello     Hello
	Placement []byte
}

// Encode serializes a HelloResp.
func (p *HelloResp) Encode() []byte {
	w := wire.NewWriter(32 + len(p.Placement))
	p.Hello.appendTo(w)
	w.Bytes32(p.Placement)
	return w.Bytes()
}

// DecodeHelloResp parses a HelloResp.
func DecodeHelloResp(b []byte) (*HelloResp, error) {
	r := wire.NewReader(b)
	p := &HelloResp{Hello: readHello(r)}
	p.Placement = append([]byte(nil), r.Bytes32()...)
	if r.Err() != nil || r.Remaining() != 0 {
		return nil, wire.ErrTruncated
	}
	return p, nil
}
