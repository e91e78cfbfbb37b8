package placement

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ownermap"
	"repro/internal/rpc"
)

// TestEpochZeroMatchesLegacyModulo is the golden compatibility proof: the
// epoch-0 table of every deployment size must place every model exactly
// where the static modulo hash (home = id mod N, replicas on the next R-1
// successors) put it — bit-identical, for R=1 and R>1.
func TestEpochZeroMatchesLegacyModulo(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 16} {
		for _, r := range []int{1, 2, 3, n} {
			if r > n {
				continue
			}
			tbl := New(n, r)
			for id := 0; id < 4096; id++ {
				home := id % n
				want := make([]int, r)
				for i := range want {
					want[i] = (home + i) % n
				}
				got := tbl.ReplicaSet(ownermap.ModelID(id))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d R=%d: ReplicaSet(%d) = %v, want legacy %v", n, r, id, got, want)
				}
			}
		}
	}
}

// TestReplicaSetSparse checks the rendezvous path's invariants: correct
// cardinality, members only, no duplicates, home-first determinism, and
// minimal movement — removing a member must not move any model that member
// did not hold, and adding one must not shuffle models between old members.
func TestReplicaSetSparse(t *testing.T) {
	tbl, err := Make(1, []int{0, 2, 3, 5, 7}, 2)
	if err != nil {
		t.Fatal(err)
	}
	isMember := map[int]bool{0: true, 2: true, 3: true, 5: true, 7: true}
	for id := 0; id < 2048; id++ {
		set := tbl.ReplicaSet(ownermap.ModelID(id))
		if len(set) != 2 || set[0] == set[1] {
			t.Fatalf("ReplicaSet(%d) = %v", id, set)
		}
		for _, pi := range set {
			if !isMember[pi] {
				t.Fatalf("ReplicaSet(%d) = %v includes non-member %d", id, set, pi)
			}
		}
		if got := tbl.ReplicaSet(ownermap.ModelID(id)); !reflect.DeepEqual(got, set) {
			t.Fatalf("ReplicaSet(%d) not deterministic: %v then %v", id, set, got)
		}
	}

	// Minimal movement on removal: models not placed on the removed member
	// keep their replica set verbatim.
	next, err := tbl.WithoutMember(3)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for id := 0; id < 2048; id++ {
		mid := ownermap.ModelID(id)
		before, after := tbl.ReplicaSet(mid), next.ReplicaSet(mid)
		if !tbl.Contains(3, mid) {
			if !reflect.DeepEqual(before, after) {
				t.Fatalf("model %d moved (%v -> %v) though member 3 never held it", id, before, after)
			}
			continue
		}
		moved++
	}
	if moved == 0 {
		t.Fatal("member 3 held no models at all — rendezvous is not spreading load")
	}

	// Minimal movement on join: a changed set only ever swaps members out
	// for the new joiner; survivors keep their slots' relative order.
	joined, err := tbl.WithMember(4)
	if err != nil {
		t.Fatal(err)
	}
	claimed := 0
	for id := 0; id < 2048; id++ {
		mid := ownermap.ModelID(id)
		before, after := tbl.ReplicaSet(mid), joined.ReplicaSet(mid)
		if reflect.DeepEqual(before, after) {
			continue
		}
		claimed++
		if !joined.Contains(4, mid) {
			t.Fatalf("model %d changed set (%v -> %v) without the joiner claiming it", id, before, after)
		}
	}
	if claimed == 0 {
		t.Fatal("joining member 4 claimed no models — rendezvous is not rebalancing")
	}
}

func TestTableMembership(t *testing.T) {
	tbl := New(4, 2)
	if _, err := tbl.WithMember(2); err == nil {
		t.Error("adding an existing member succeeded")
	}
	if _, err := tbl.WithoutMember(9); err == nil {
		t.Error("removing a non-member succeeded")
	}
	next, err := tbl.WithoutMember(1)
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch != 1 || next.Member(1) || !next.Member(3) {
		t.Errorf("WithoutMember(1) = %v", next)
	}
	if !tbl.Member(1) {
		t.Error("WithoutMember mutated the receiver")
	}
	one := New(1, 1)
	if _, err := one.WithoutMember(0); err == nil {
		t.Error("removing the last member succeeded")
	}
}

func TestStateDualEpoch(t *testing.T) {
	old := New(4, 2)
	next, err := old.WithoutMember(1)
	if err != nil {
		t.Fatal(err)
	}
	st := &State{Cur: next, Prev: old}
	if !st.Migrating() {
		t.Fatal("dual state not migrating")
	}
	for id := 0; id < 512; id++ {
		mid := ownermap.ModelID(id)
		order := st.ReadOrder(mid)
		// New epoch's set leads; old-only owners trail; no duplicates.
		cur := next.ReplicaSet(mid)
		if !reflect.DeepEqual(order[:len(cur)], cur) {
			t.Fatalf("ReadOrder(%d) = %v does not lead with the current set %v", id, order, cur)
		}
		seen := map[int]bool{}
		for _, pi := range order {
			if seen[pi] {
				t.Fatalf("ReadOrder(%d) = %v has duplicates", id, order)
			}
			seen[pi] = true
		}
		for _, pi := range old.ReplicaSet(mid) {
			if !seen[pi] {
				t.Fatalf("ReadOrder(%d) = %v misses previous-epoch owner %d", id, order, pi)
			}
		}
		// CatchingUp: exactly the members new to the set this epoch.
		for _, pi := range order {
			wantCatch := next.Contains(pi, mid) && !old.Contains(pi, mid)
			if got := st.CatchingUp(pi, mid); got != wantCatch {
				t.Fatalf("CatchingUp(%d, %d) = %v, want %v", pi, id, got, wantCatch)
			}
		}
	}
	// A single-epoch state never reports catching-up replicas.
	single := &State{Cur: next}
	for id := 0; id < 64; id++ {
		for pi := 0; pi < 4; pi++ {
			if single.CatchingUp(pi, ownermap.ModelID(id)) {
				t.Fatalf("single-epoch state reports CatchingUp(%d, %d)", pi, id)
			}
		}
	}
}

func TestStateCodecRoundTrip(t *testing.T) {
	old := New(5, 3)
	next, err := old.WithMember(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*State{
		nil,
		{Cur: old},
		{Cur: next, Prev: old},
	} {
		got, err := DecodeState(EncodeState(st))
		if err != nil {
			t.Fatalf("decode(%v): %v", st, err)
		}
		switch {
		case st == nil:
			if got != nil {
				t.Fatalf("decode(nil) = %v", got)
			}
		case got == nil:
			t.Fatalf("decode(%v) = nil", st)
		default:
			if !got.Cur.Equal(st.Cur) || !got.Prev.Equal(st.Prev) {
				t.Fatalf("round trip %v -> %v", st, got)
			}
		}
	}
	if _, err := DecodeState([]byte{1, 2, 3}); err == nil {
		t.Error("torn state decoded without error")
	}
}

// TestWrongEpochErrorSurvivesText proves the self-update path works across
// a real wire: a provider's wrong-epoch and not-migrated refusals, wrapped
// in context, reach the client as the same conditions (they cross as rpc
// status codes, not as message text), and an unrelated failure matches
// neither.
func TestWrongEpochErrorSurvivesText(t *testing.T) {
	srv := rpc.NewServer()
	fail := map[string]error{
		"epoch": fmt.Errorf("provider 1: store 42: %w", ErrWrongEpoch),
		"nm":    fmt.Errorf("provider 2: owner 7: %w", ErrNotMigrated),
		"other": errors.New("some other failure"),
	}
	for name, err := range fail {
		srv.Register(name, func(context.Context, rpc.Message) (rpc.Message, error) { return rpc.Message{}, err })
	}
	lis, addr, err := rpc.ListenAndServeTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	conn, err := rpc.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	call := func(name string) error {
		_, err := conn.Call(context.Background(), name, rpc.Message{})
		return err
	}

	for _, e := range []error{fail["epoch"], call("epoch")} {
		if !errors.Is(e, ErrWrongEpoch) || errors.Is(e, ErrNotMigrated) {
			t.Errorf("%v: errors.Is wrong-epoch %v not-migrated %v, want true false",
				e, errors.Is(e, ErrWrongEpoch), errors.Is(e, ErrNotMigrated))
		}
	}
	for _, e := range []error{fail["nm"], call("nm")} {
		if !errors.Is(e, ErrNotMigrated) || errors.Is(e, ErrWrongEpoch) {
			t.Errorf("%v: errors.Is not-migrated %v wrong-epoch %v, want true false",
				e, errors.Is(e, ErrNotMigrated), errors.Is(e, ErrWrongEpoch))
		}
	}
	if e := call("other"); e == nil || errors.Is(e, ErrWrongEpoch) || errors.Is(e, ErrNotMigrated) {
		t.Errorf("unrelated remote error %v matched a placement condition", e)
	}
}

// TestHomeIsFirstReplica pins Table.Home to ReplicaSet(id)[0] on dense
// tables, on sparse ones reached by WithMember/WithoutMember, and under
// per-model overrides that widen or pack a set — and checks that Home
// allocates nothing, as the LCP scan calls it once per catalog entry.
func TestHomeIsFirstReplica(t *testing.T) {
	grown, err := New(4, 3).WithMember(6)
	if err != nil {
		t.Fatal(err)
	}
	shrunk, err := New(5, 2).WithoutMember(0)
	if err != nil {
		t.Fatal(err)
	}
	regrown, err := shrunk.WithMember(0) // dense members again, at epoch 2
	if err != nil {
		t.Fatal(err)
	}
	ov := map[ownermap.ModelID]int{}
	for id := ownermap.ModelID(0); id < 64; id++ {
		ov[id] = 1 + int(id)%5
	}
	tables := map[string]*Table{
		"dense 1x1":            New(1, 1),
		"dense 4x3":            New(4, 3),
		"dense 7x2":            New(7, 2),
		"sparse +6":            grown,
		"sparse -0":            shrunk,
		"regrown":              regrown,
		"dense overrides":      New(5, 2).WithOverrides(ov),
		"sparse overrides":     grown.WithOverrides(ov),
		"carried overrides":    mustNext(t, New(4, 2).WithOverrides(ov), 9),
		"overrides next epoch": New(4, 3).NextOverrides(ov),
	}
	for name, tbl := range tables {
		for id := ownermap.ModelID(0); id < 2048; id++ {
			if got, want := tbl.Home(id), tbl.ReplicaSet(id)[0]; got != want {
				t.Fatalf("%s %v: Home(%d) = %d, ReplicaSet()[0] = %d", name, tbl, id, got, want)
			}
		}
		if n := testing.AllocsPerRun(100, func() { tbl.Home(12345) }); n != 0 {
			t.Errorf("%s: Home allocates %.0f times per call", name, n)
		}
	}
}

func mustNext(t *testing.T, tbl *Table, add int) *Table {
	t.Helper()
	next, err := tbl.WithMember(add)
	if err != nil {
		t.Fatal(err)
	}
	return next
}
