package placement

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/ownermap"
)

// TestOverridesWidenAndPack pins the per-model replica-count semantics:
// an override above R widens that model's set (prefix-stable: the base
// set is a prefix of the widened one), an override below R packs it, and
// every other model keeps the base placement.
func TestOverridesWidenAndPack(t *testing.T) {
	base := New(5, 2)
	tbl := base.WithOverrides(map[ownermap.ModelID]int{7: 4, 9: 1, 3: 2})

	if got := tbl.ReplicasFor(7); got != 4 {
		t.Errorf("ReplicasFor(7) = %d, want 4", got)
	}
	if got := tbl.ReplicasFor(9); got != 1 {
		t.Errorf("ReplicasFor(9) = %d, want 1", got)
	}
	// An override equal to base R normalizes away.
	if _, ok := tbl.Overrides[3]; ok {
		t.Error("no-op override for model 3 survived normalization")
	}
	if got := tbl.ReplicasFor(3); got != 2 {
		t.Errorf("ReplicasFor(3) = %d, want base 2", got)
	}

	wide, packed, plain := tbl.ReplicaSet(7), tbl.ReplicaSet(9), base.ReplicaSet(8)
	if len(wide) != 4 || len(packed) != 1 || len(plain) != 2 {
		t.Fatalf("set sizes: wide=%v packed=%v plain=%v", wide, packed, plain)
	}
	// Widening extends the base set rather than reshuffling it, so the
	// data already on the base replicas stays put.
	if got := base.ReplicaSet(7); !reflect.DeepEqual(wide[:2], got) {
		t.Errorf("widened set %v does not extend base set %v", wide, got)
	}
	if got := base.ReplicaSet(9); packed[0] != got[0] {
		t.Errorf("packed set %v does not keep the home of base set %v", packed, got)
	}
	// Models without overrides are untouched.
	if got := tbl.ReplicaSet(8); !reflect.DeepEqual(got, plain) {
		t.Errorf("unrelated model moved: %v vs %v", got, plain)
	}
}

// TestOverridesClamp pins the normalization bounds: counts clamp to
// [1, members]; clamping to exactly R drops the entry.
func TestOverridesClamp(t *testing.T) {
	tbl := New(3, 2).WithOverrides(map[ownermap.ModelID]int{1: 0, 2: 99, 3: -5})
	if got := tbl.ReplicasFor(1); got != 1 {
		t.Errorf("ReplicasFor(1) = %d, want clamp to 1", got)
	}
	if got := tbl.ReplicasFor(2); got != 3 {
		t.Errorf("ReplicasFor(2) = %d, want clamp to members (3)", got)
	}
	if got := tbl.ReplicasFor(3); got != 1 {
		t.Errorf("ReplicasFor(3) = %d, want clamp to 1", got)
	}
	// Clamping 99 → 3 on a 3-member R=3 table is a no-op → dropped.
	full := New(3, 3).WithOverrides(map[ownermap.ModelID]int{2: 99})
	if full.Overrides != nil {
		t.Errorf("override clamped to base R survived: %v", full.Overrides)
	}
}

// TestOverridesStringRoundTrip pins the rendering operators and logs see:
// overrides append a sorted " ov=" section.
func TestOverridesStringRoundTrip(t *testing.T) {
	tbl := New(4, 2).WithOverrides(map[ownermap.ModelID]int{12: 3, 5: 1})
	tbl.Epoch = 9

	if want := "table{epoch=9 r=2 members=0,1,2,3 ov=5:1,12:3}"; tbl.String() != want {
		t.Errorf("String() = %q, want %q", tbl.String(), want)
	}

	// Override-free tables keep the legacy rendering.
	plain := New(4, 2)
	if want := "table{epoch=0 r=2 members=0,1,2,3}"; plain.String() != want {
		t.Errorf("plain String() = %q, want %q", plain.String(), want)
	}
}

// TestOverridesStateCodecRoundTrip pins the binary codec: override-free
// states encode bit-identically to the legacy format, and states with
// overrides round-trip through EncodeState/DecodeState — including a dual
// state whose epochs disagree on overrides.
func TestOverridesStateCodecRoundTrip(t *testing.T) {
	plain := &State{Cur: New(4, 2)}
	if b := EncodeState(plain); b[0]&stateFlagOverrides != 0 {
		t.Error("override-free state set the overrides flag")
	}

	old := New(4, 2)
	next := old.NextOverrides(map[ownermap.ModelID]int{7: 3, 11: 1})
	if next.Epoch != old.Epoch+1 {
		t.Fatalf("NextOverrides epoch = %d", next.Epoch)
	}
	dual := &State{Cur: next, Prev: old}
	got, err := DecodeState(EncodeState(dual))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Cur.Equal(next) || !got.Prev.Equal(old) {
		t.Errorf("decoded state %v/%v != %v/%v", got.Cur, got.Prev, next, old)
	}

	// The legacy (pre-override) encoding of the same member list still
	// decodes: bit-compat with persisted manifests.
	legacy := EncodeState(&State{Cur: old})
	dec, err := DecodeState(legacy)
	if err != nil || !dec.Cur.Equal(old) {
		t.Errorf("legacy encoding decode = %v, %v", dec, err)
	}
}

// TestOverridesCarryThroughMembershipChanges pins that a join/drain epoch
// bump does not silently discard heat overrides — they re-normalize
// against the new member count instead.
func TestOverridesCarryThroughMembershipChanges(t *testing.T) {
	tbl := New(3, 2).WithOverrides(map[ownermap.ModelID]int{7: 3, 9: 1})

	joined, err := tbl.WithMember(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := joined.ReplicasFor(7); got != 3 {
		t.Errorf("after join ReplicasFor(7) = %d, want 3", got)
	}

	drained, err := tbl.WithoutMember(2)
	if err != nil {
		t.Fatal(err)
	}
	// 2 members left: the widen-to-3 clamps to 2 == base R and drops.
	if got := drained.ReplicasFor(7); got != 2 {
		t.Errorf("after drain ReplicasFor(7) = %d, want 2", got)
	}
	if got := drained.ReplicasFor(9); got != 1 {
		t.Errorf("after drain ReplicasFor(9) = %d, want 1", got)
	}
}

// TestOverridesEqual pins Equal's override comparison.
func TestOverridesEqual(t *testing.T) {
	a := New(4, 2).WithOverrides(map[ownermap.ModelID]int{7: 3})
	b := New(4, 2).WithOverrides(map[ownermap.ModelID]int{7: 3})
	c := New(4, 2).WithOverrides(map[ownermap.ModelID]int{7: 4})
	d := New(4, 2)
	if !a.Equal(b) {
		t.Error("identical override tables not Equal")
	}
	if a.Equal(c) || a.Equal(d) || d.Equal(a) {
		t.Error("tables with differing overrides compared Equal")
	}
}

// TestOverridesEpochZeroGoldenUnchanged re-runs the epoch-0 golden over a
// table that merely touched the override API with a no-op: placement must
// stay bit-identical to the legacy modulo scheme.
func TestOverridesEpochZeroGoldenUnchanged(t *testing.T) {
	base := New(4, 2)
	touched := base.WithOverrides(nil)
	for id := 0; id < 4096; id++ {
		want := base.ReplicaSet(ownermap.ModelID(id))
		got := touched.ReplicaSet(ownermap.ModelID(id))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ReplicaSet(%d) = %v, want %v", id, got, want)
		}
	}
	if !bytes.Equal(EncodeState(&State{Cur: base}), EncodeState(&State{Cur: touched})) {
		t.Error("no-op override changed the state encoding")
	}
}
