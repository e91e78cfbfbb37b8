// Package placement computes and carries EvoStore's epoch-versioned
// placement table: the single structure clients, providers and tools agree
// on to decide which providers hold a model's metadata and segments.
//
// The paper (§4.1) pins a model to provider `id mod N` forever; replication
// extended that to the next R-1 modulo successors. Both are special cases
// of a Table whose member list is exactly [0..N-1]: for such *dense*
// tables ReplicaSet reproduces the legacy modulo arithmetic bit for bit,
// so epoch 0 of any never-resized deployment is wire- and
// placement-compatible with every earlier binary. Once membership changes
// (a provider drained away or a fresh one joined), the member list stops
// being dense and ReplicaSet switches to rendezvous (highest-random-
// weight) hashing over the members, which moves only the models whose
// replica sets must move.
//
// A Table is immutable once built. Membership changes produce a new Table
// with Epoch+1 (WithMember / WithoutMember); during the migration both
// tables stay active as a State{Cur, Prev} pair: reads prefer the new
// epoch's replicas and fall back to the old, writes fan out to the union,
// and providers accept writes valid in either epoch. The client.Rebalancer
// drives the transition (see internal/client/rebalance.go).
//
// Contracts:
//   - Thread safety: Tables and States are immutable after construction;
//     share them freely.
//   - Determinism: ReplicaSet is a pure function of (Members, Replicas,
//     id). Two parties holding equal tables always agree on placement.
//   - Convergent installs: a stale table install is a no-op, an
//     equal-epoch single state supersedes the dual state, and a newer
//     epoch always wins — installs commute, so broadcasts and retries
//     need no ordering.
//   - Wire: Encode/DecodeState ride rpc.Message.Meta. ErrWrongEpoch and
//     ErrNotMigrated cross as rpc status codes and match with errors.Is on
//     either side of the wire; a rejection carries no table, so a stale
//     client re-syncs (client.SyncPlacement).
package placement
