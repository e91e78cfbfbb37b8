package placement

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ownermap"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// Table is one epoch's placement view: an ordered member list and the
// replication factor applied over it. Members are provider indices into
// the deployment's canonical address list — membership can shrink or grow,
// the address list only grows. Every model replicates at the same factor.
type Table struct {
	Epoch    uint64
	Members  []int // sorted ascending, unique, non-negative
	Replicas int   // requested R; effective R is min(Replicas, len(Members))
}

// New returns the epoch-0 table of a fresh deployment: providers 0..n-1,
// replication factor r. Its placement is bit-identical to the legacy
// static-modulo scheme.
func New(n, r int) *Table {
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	t, err := Make(0, members, r)
	if err != nil {
		panic("placement: " + err.Error()) // n<=0 or r<1: caller bug
	}
	return t
}

// Make validates and builds a table. The member list is copied and sorted.
func Make(epoch uint64, members []int, replicas int) (*Table, error) {
	if len(members) == 0 {
		return nil, errors.New("placement: empty member list")
	}
	if replicas < 1 {
		return nil, fmt.Errorf("placement: replication factor %d < 1", replicas)
	}
	ms := append([]int(nil), members...)
	sort.Ints(ms)
	for i, m := range ms {
		if m < 0 {
			return nil, fmt.Errorf("placement: negative member %d", m)
		}
		if i > 0 && ms[i-1] == m {
			return nil, fmt.Errorf("placement: duplicate member %d", m)
		}
	}
	return &Table{Epoch: epoch, Members: ms, Replicas: replicas}, nil
}

// R returns the effective replication factor: Replicas clamped to the
// member count.
func (t *Table) R() int {
	if t.Replicas > len(t.Members) {
		return len(t.Members)
	}
	return t.Replicas
}

// dense reports whether Members is exactly [0..n-1] — the legacy layout
// whose placement must stay bit-identical to the static modulo hash. As
// Members is sorted, unique and non-negative, its last entry decides.
func (t *Table) dense() bool {
	n := len(t.Members)
	return n > 0 && t.Members[n-1] == n-1
}

// Home returns the first member of id's replica set — ReplicaSet(id)[0] —
// without building the set.
func (t *Table) Home(id ownermap.ModelID) int {
	n := len(t.Members)
	if t.dense() {
		return int(uint64(id) % uint64(n))
	}
	home, best := -1, uint64(0)
	for _, m := range t.Members {
		// Members ascend, so a tie keeps the lower member, as ReplicaSet's
		// ranking does.
		if s := rendezvousScore(uint64(id), uint64(m)); home < 0 || s > best {
			home, best = m, s
		}
	}
	return home
}

// ReplicaSet returns the providers holding id under this table, preferred
// (home) first. Dense tables reproduce the legacy scheme — home = id mod N
// plus the next R-1 successors; sparse tables rank members by rendezvous
// hash so a membership change moves only the models it must.
func (t *Table) ReplicaSet(id ownermap.ModelID) []int {
	n := len(t.Members)
	set := make([]int, t.R())
	if t.dense() {
		home := int(uint64(id) % uint64(n))
		for i := range set {
			set[i] = (home + i) % n
		}
		return set
	}
	type scored struct {
		member int
		score  uint64
	}
	ranked := make([]scored, n)
	for i, m := range t.Members {
		ranked[i] = scored{m, rendezvousScore(uint64(id), uint64(m))}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].member < ranked[j].member
	})
	for i := range set {
		set[i] = ranked[i].member
	}
	return set
}

// rendezvousScore is the highest-random-weight score of (model, member):
// FNV-1a over the two 64-bit words. Each member scores independently, so
// removing one member only re-homes the models it ranked first for, and
// adding one only claims the models it now out-scores everyone on.
func rendezvousScore(id, member uint64) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for _, w := range [2]uint64{id, member} {
		for i := 0; i < 8; i++ {
			h ^= (w >> (8 * i)) & 0xff
			h *= prime
		}
	}
	return h
}

// Contains reports whether provider is in id's replica set under this
// table.
func (t *Table) Contains(provider int, id ownermap.ModelID) bool {
	for _, pi := range t.ReplicaSet(id) {
		if pi == provider {
			return true
		}
	}
	return false
}

// Member reports whether provider is in the member list at all.
func (t *Table) Member(provider int) bool {
	i := sort.SearchInts(t.Members, provider)
	return i < len(t.Members) && t.Members[i] == provider
}

// WithMember returns the next-epoch table with provider added. Adding a
// present member is an error (an epoch bump must change placement).
func (t *Table) WithMember(provider int) (*Table, error) {
	if provider < 0 {
		return nil, fmt.Errorf("placement: negative member %d", provider)
	}
	if t.Member(provider) {
		return nil, fmt.Errorf("placement: provider %d is already a member of epoch %d", provider, t.Epoch)
	}
	return t.Next(append(append([]int(nil), t.Members...), provider))
}

// WithoutMember returns the next-epoch table with provider removed.
func (t *Table) WithoutMember(provider int) (*Table, error) {
	if !t.Member(provider) {
		return nil, fmt.Errorf("placement: provider %d is not a member of epoch %d", provider, t.Epoch)
	}
	if len(t.Members) == 1 {
		return nil, errors.New("placement: cannot remove the last member")
	}
	ms := make([]int, 0, len(t.Members)-1)
	for _, m := range t.Members {
		if m != provider {
			ms = append(ms, m)
		}
	}
	return t.Next(ms)
}

// Next returns the epoch+1 table over an arbitrary member list (same R).
func (t *Table) Next(members []int) (*Table, error) {
	return Make(t.Epoch+1, members, t.Replicas)
}

// Equal reports whether two tables are identical (epoch, members and R).
func (t *Table) Equal(o *Table) bool {
	if t == nil || o == nil {
		return t == o
	}
	if t.Epoch != o.Epoch || t.Replicas != o.Replicas || len(t.Members) != len(o.Members) {
		return false
	}
	for i, m := range t.Members {
		if o.Members[i] != m {
			return false
		}
	}
	return true
}

// String renders the table as "table{epoch=E r=R members=a,b,c}" for logs
// and operators.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "table{epoch=%d r=%d members=", t.Epoch, t.Replicas)
	for i, m := range t.Members {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(m))
	}
	sb.WriteByte('}')
	return sb.String()
}

// --- dual-epoch state ---------------------------------------------------------

// State is a provider's or client's placement view: the current table
// plus, while a migration is draining, the previous one. Prev == nil means
// no migration is in flight.
type State struct {
	Cur  *Table
	Prev *Table
}

// Migrating reports whether two epochs are active.
func (s *State) Migrating() bool { return s != nil && s.Prev != nil }

// Complete returns the table whose replica sets already hold every model:
// Prev while migrating, as its owners keep everything until the migration
// has committed on every member and evicts, and Cur otherwise.
func (s *State) Complete() *Table {
	if s.Prev != nil {
		return s.Prev
	}
	return s.Cur
}

// ReplicaSet is the current epoch's replica set (where data will live once
// any in-flight migration completes).
func (s *State) ReplicaSet(id ownermap.ModelID) []int { return s.Cur.ReplicaSet(id) }

// ReadOrder returns the read-preference order for id: the current epoch's
// replicas first (data is migrating toward them), then any previous-epoch
// replicas not in the current set (where the data still is until the drain
// completes).
func (s *State) ReadOrder(id ownermap.ModelID) []int {
	set := s.Cur.ReplicaSet(id)
	if s.Prev == nil {
		return set
	}
	in := make(map[int]bool, len(set))
	for _, pi := range set {
		in[pi] = true
	}
	for _, pi := range s.Prev.ReplicaSet(id) {
		if !in[pi] {
			set = append(set, pi)
		}
	}
	return set
}

// WriteSet returns the providers a mutation of id must fan out to: the
// union of the active epochs' replica sets (current epoch first). Writing
// through both epochs is what lets no request fail during a migration.
func (s *State) WriteSet(id ownermap.ModelID) []int { return s.ReadOrder(id) }

// Contains reports whether provider is in id's replica set under any
// active epoch.
func (s *State) Contains(provider int, id ownermap.ModelID) bool {
	if s.Cur.Contains(provider, id) {
		return true
	}
	return s.Prev != nil && s.Prev.Contains(provider, id)
}

// CatchingUp reports whether provider joined id's replica set in the
// current epoch while the previous epoch is still active — i.e. the
// provider legitimately may not hold id's state yet because the rebalancer
// has not backfilled it. Misses there mean "ask the previous owners", not
// "does not exist".
func (s *State) CatchingUp(provider int, id ownermap.ModelID) bool {
	return s.Prev != nil && s.Cur.Contains(provider, id) && !s.Prev.Contains(provider, id)
}

// EpochOf returns s's current epoch, tolerating nil states and tables (0
// means "no placement armed"). Manifest writers and the restart-rejoin
// handshake use it to compare placement views without nil checks.
func EpochOf(s *State) uint64 {
	if s == nil || s.Cur == nil {
		return 0
	}
	return s.Cur.Epoch
}

// --- wire codec ---------------------------------------------------------------

// State encoding flag bits: a leading byte names the tables that follow.
const (
	stateFlagCur  = 1 // a current table follows
	stateFlagPrev = 2 // a previous table follows the current one
	// stateFlagPerModel marked per-model replica counts after each table,
	// written by binaries that had a heat-driven placement controller. This
	// one refuses such a state: placing those models at the base factor
	// would send a packed model's reads to replicas that never held it.
	stateFlagPerModel = 4
)

func (t *Table) encodeTo(w *wire.Writer) {
	w.U64(t.Epoch)
	w.U32(uint32(t.Replicas))
	w.U32(uint32(len(t.Members)))
	for _, m := range t.Members {
		w.U32(uint32(m))
	}
}

func decodeTable(r *wire.Reader) (*Table, error) {
	epoch := r.U64()
	replicas := int(r.U32())
	n := int(r.U32())
	if r.Err() != nil || n > r.Remaining()/4+1 {
		return nil, wire.ErrTruncated
	}
	members := make([]int, n)
	for i := range members {
		members[i] = int(r.U32())
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return Make(epoch, members, replicas)
}

// EncodeState serializes a placement state (nil allowed: an unguarded
// provider reports "no table").
func EncodeState(s *State) []byte {
	w := wire.NewWriter(64)
	var flags uint8
	if s != nil && s.Cur != nil {
		flags |= stateFlagCur
	}
	if s != nil && s.Prev != nil {
		flags |= stateFlagPrev
	}
	w.U8(flags)
	if flags&stateFlagCur != 0 {
		s.Cur.encodeTo(w)
	}
	if flags&stateFlagPrev != 0 {
		s.Prev.encodeTo(w)
	}
	return w.Bytes()
}

// DecodeState parses EncodeState's output and nothing more: a trailing
// byte is an error, and so is a flag bit other than stateFlagCur and
// stateFlagPrev, named in the error. A "no table" encoding decodes to nil.
func DecodeState(b []byte) (*State, error) {
	r := wire.NewReader(b)
	flags := r.U8()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if flags&stateFlagPerModel != 0 {
		return nil, fmt.Errorf("placement: state flag bit %d: the state carries per-model replica overrides, which this binary no longer supports", stateFlagPerModel)
	}
	if unknown := flags &^ (stateFlagCur | stateFlagPrev); unknown != 0 {
		return nil, fmt.Errorf("placement: unknown state flag bit %d", unknown&-unknown)
	}
	if flags&stateFlagCur == 0 {
		if r.Remaining() != 0 {
			return nil, wire.ErrTruncated
		}
		return nil, nil
	}
	s := &State{}
	var err error
	if s.Cur, err = decodeTable(r); err != nil {
		return nil, err
	}
	if flags&stateFlagPrev != 0 {
		if s.Prev, err = decodeTable(r); err != nil {
			return nil, err
		}
	}
	if r.Remaining() != 0 {
		return nil, wire.ErrTruncated
	}
	return s, nil
}

// --- typed rejections -----------------------------------------------------------

// ErrWrongEpoch rejects a request placed under an epoch this provider no
// longer (or does not yet) serve. It crosses the wire as
// rpc.StatusWrongEpoch and names only the condition: the rejected client
// learns the current view from SyncPlacement.
var ErrWrongEpoch = rpc.NewCoded(rpc.StatusWrongEpoch, "placement: wrong epoch")

// ErrNotMigrated marks a read or refcount miss on a replica that joined
// the model's set in the current epoch but has not been backfilled yet;
// callers should fall back to (or let repair replay from) the previous
// epoch's owners. It crosses the wire as rpc.StatusNotMigrated.
var ErrNotMigrated = rpc.NewCoded(rpc.StatusNotMigrated, "placement: not migrated here yet")
