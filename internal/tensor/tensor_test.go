package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDTypeSizes(t *testing.T) {
	cases := []struct {
		dt   DType
		size int
		name string
	}{
		{Float32, 4, "float32"},
		{Float64, 8, "float64"},
		{Int32, 4, "int32"},
		{Int64, 8, "int64"},
		{Uint8, 1, "uint8"},
	}
	for _, c := range cases {
		if got := c.dt.Size(); got != c.size {
			t.Errorf("%v.Size() = %d, want %d", c.dt, got, c.size)
		}
		if got := c.dt.String(); got != c.name {
			t.Errorf("%v.String() = %q, want %q", c.dt, got, c.name)
		}
		back, err := ParseDType(c.name)
		if err != nil || back != c.dt {
			t.Errorf("ParseDType(%q) = %v, %v; want %v", c.name, back, err, c.dt)
		}
	}
	if _, err := ParseDType("complex128"); err == nil {
		t.Error("ParseDType accepted unknown dtype")
	}
}

func TestNewZeroFilled(t *testing.T) {
	tt := New("w", Float32, 3, 4)
	if tt.NumElements() != 12 {
		t.Fatalf("NumElements = %d, want 12", tt.NumElements())
	}
	if tt.SizeBytes() != 48 {
		t.Fatalf("SizeBytes = %d, want 48", tt.SizeBytes())
	}
	for i, b := range tt.Data {
		if b != 0 {
			t.Fatalf("byte %d not zero", i)
		}
	}
	if err := tt.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestScalarShape(t *testing.T) {
	s := New("scalar", Float64)
	if s.NumElements() != 1 || s.SizeBytes() != 8 {
		t.Fatalf("scalar: elements=%d bytes=%d", s.NumElements(), s.SizeBytes())
	}
}

func TestValidateRejectsBadBuffer(t *testing.T) {
	tt := New("w", Float32, 2, 2)
	tt.Data = tt.Data[:15]
	if err := tt.Validate(); err == nil {
		t.Error("Validate accepted short buffer")
	}
	tt2 := New("w", Float32, 2)
	tt2.Shape[0] = -2
	if err := tt2.Validate(); err == nil {
		t.Error("Validate accepted negative dimension")
	}
}

func TestFloat32Accessors(t *testing.T) {
	tt := New("w", Float32, 4)
	tt.SetFloat32(2, 3.25)
	if got := tt.Float32At(2); got != 3.25 {
		t.Fatalf("Float32At = %v, want 3.25", got)
	}
	if got := tt.Float32At(0); got != 0 {
		t.Fatalf("untouched element = %v, want 0", got)
	}
}

func TestFloat32AccessorsPanicOnWrongDType(t *testing.T) {
	tt := New("w", Int64, 4)
	defer func() {
		if recover() == nil {
			t.Error("Float32At did not panic on int64 tensor")
		}
	}()
	tt.Float32At(0)
}

func TestFillSeededDeterministic(t *testing.T) {
	a := New("w", Float32, 100)
	b := New("w", Float32, 100)
	a.FillSeeded(42)
	b.FillSeeded(42)
	if !a.Equal(b) {
		t.Error("same seed produced different contents")
	}
	b.FillSeeded(43)
	if a.Equal(b) {
		t.Error("different seeds produced identical contents")
	}
}

func TestFillSeededOddLength(t *testing.T) {
	// Lengths not divisible by 8 exercise the tail path.
	for _, n := range []int{1, 3, 7, 9, 15} {
		a := New("w", Uint8, n)
		a.FillSeeded(7)
		allZero := true
		for _, b := range a.Data {
			if b != 0 {
				allZero = false
			}
		}
		if allZero && n > 2 {
			t.Errorf("n=%d: fill left buffer zero", n)
		}
	}
}

func TestPerturbChangesContents(t *testing.T) {
	a := New("w", Float32, 64)
	a.FillSeeded(1)
	before := a.Clone()
	a.Perturb(99)
	if a.Equal(before) {
		t.Error("Perturb left tensor unchanged")
	}
	// Perturb must be deterministic.
	b := before.Clone()
	b.Perturb(99)
	if !a.Equal(b) {
		t.Error("Perturb is not deterministic")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New("w", Float32, 8)
	a.FillSeeded(5)
	c := a.Clone()
	c.Data[0] ^= 0xff
	c.Shape[0] = 4
	if a.Data[0] == c.Data[0] {
		t.Error("clone shares data buffer")
	}
	if a.Shape[0] != 8 {
		t.Error("clone shares shape slice")
	}
}

func TestSameSpecAndEqual(t *testing.T) {
	a := New("w", Float32, 2, 3)
	b := New("w", Float32, 2, 3)
	if !a.SameSpec(b) || !a.Equal(b) {
		t.Error("identical tensors compared unequal")
	}
	b.Name = "v"
	if a.SameSpec(b) {
		t.Error("SameSpec ignored name")
	}
	b.Name = "w"
	b.Shape = []int{3, 2}
	if a.SameSpec(b) {
		t.Error("SameSpec ignored shape")
	}
	c := New("w", Float32, 2, 3)
	c.Data[5] = 1
	if a.Equal(c) {
		t.Error("Equal ignored contents")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	a := New("w", Float32, 16)
	a.FillSeeded(1)
	fp := a.Fingerprint()
	b := a.Clone()
	if b.Fingerprint() != fp {
		t.Error("fingerprint not stable across clone")
	}
	b.Data[3] ^= 1
	if b.Fingerprint() == fp {
		t.Error("fingerprint insensitive to data change")
	}
	c := a.Clone()
	c.Name = "x"
	if c.Fingerprint() == fp {
		t.Error("fingerprint insensitive to name change")
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	a := New("layer3/kernel", Float32, 5, 7)
	a.FillSeeded(11)
	enc := a.Encode()
	if len(enc) != a.EncodedSize() {
		t.Fatalf("encoded size %d != EncodedSize %d", len(enc), a.EncodedSize())
	}
	back, n, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if n != len(enc) {
		t.Fatalf("Decode consumed %d of %d bytes", n, len(enc))
	}
	if !a.Equal(back) {
		t.Error("roundtrip mismatch")
	}
}

func TestDecodeTruncated(t *testing.T) {
	a := New("w", Float64, 3)
	a.FillSeeded(2)
	enc := a.Encode()
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("Decode accepted truncation at %d bytes", cut)
		}
	}
}

func TestDecodeBadDType(t *testing.T) {
	a := New("w", Float32, 1)
	enc := a.Encode()
	enc[2+len(a.Name)] = 200 // dtype byte
	if _, _, err := Decode(enc); err == nil {
		t.Error("Decode accepted invalid dtype byte")
	}
}

func TestEncodeDecodeSet(t *testing.T) {
	var ts []*Tensor
	for i := 0; i < 9; i++ {
		tt := New("t", Float32, i+1)
		tt.FillSeeded(uint64(i))
		ts = append(ts, tt)
	}
	seg := EncodeSet(ts)
	back, err := DecodeSet(seg)
	if err != nil {
		t.Fatalf("DecodeSet: %v", err)
	}
	if len(back) != len(ts) {
		t.Fatalf("got %d tensors, want %d", len(back), len(ts))
	}
	for i := range ts {
		if !ts[i].Equal(back[i]) {
			t.Errorf("tensor %d mismatch", i)
		}
	}
}

// A decoded tensor's Data is capped at its own length: an append to it
// reallocates instead of overwriting the encoding that follows it.
func TestDecodeCapsData(t *testing.T) {
	a, b := New("a", Float32, 4), New("b", Float32, 4)
	a.FillSeeded(1)
	b.FillSeeded(2)
	seg := EncodeSet([]*Tensor{a, b})
	ts, err := DecodeSet(seg)
	if err != nil {
		t.Fatal(err)
	}
	if cap(ts[0].Data) != len(ts[0].Data) {
		t.Fatalf("Data len %d cap %d, want a capped view", len(ts[0].Data), cap(ts[0].Data))
	}
	_ = append(ts[0].Data, 0xff, 0xff, 0xff, 0xff)
	again, err := DecodeSet(seg)
	if err != nil || !again[1].Equal(b) {
		t.Fatalf("an append to the first tensor's Data changed the second's encoding: %v", err)
	}
}

func TestDecodeSetEmpty(t *testing.T) {
	out, err := DecodeSet(nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("DecodeSet(nil) = %v, %v", out, err)
	}
}

// Property: encode/decode roundtrips for arbitrary names, shapes and seeds.
func TestQuickRoundtrip(t *testing.T) {
	f := func(name string, d0, d1 uint8, seed uint64) bool {
		if len(name) > 1000 {
			name = name[:1000]
		}
		tt := New(name, Float32, int(d0%32), int(d1%32))
		tt.FillSeeded(seed)
		back, n, err := Decode(tt.Encode())
		return err == nil && n == tt.EncodedSize() && tt.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: fingerprints of same-seed fills agree; flipped bytes disagree.
func TestQuickFingerprint(t *testing.T) {
	f := func(seed uint64, flip uint16) bool {
		a := New("w", Float32, 64)
		a.FillSeeded(seed)
		b := a.Clone()
		if a.Fingerprint() != b.Fingerprint() {
			return false
		}
		b.Data[int(flip)%len(b.Data)] ^= 0x5a
		return a.Fingerprint() != b.Fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFillSeeded(b *testing.B) {
	tt := New("w", Float32, 1<<18) // 1 MiB
	b.SetBytes(int64(tt.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt.FillSeeded(uint64(i))
	}
}

func BenchmarkTensorFingerprint(b *testing.B) {
	tt := New("w", Float32, 1<<20) // 4 MiB
	tt.FillSeeded(1)
	b.SetBytes(int64(tt.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprintSink = tt.Fingerprint()
	}
}

var fingerprintSink uint64

func BenchmarkEncodeSet(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var ts []*Tensor
	for i := 0; i < 100; i++ {
		tt := New("t", Float32, 1024+r.Intn(64))
		tt.FillSeeded(uint64(i))
		ts = append(ts, tt)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = EncodeSet(ts)
	}
}
