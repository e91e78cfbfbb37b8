package wire

import (
	"testing"
	"testing/quick"
)

func TestRoundtrip(t *testing.T) {
	w := NewWriter(64)
	w.U8(7)
	w.U32(1 << 30)
	w.U64(1 << 60)
	w.F64(3.14159)
	w.Bytes32([]byte{1, 2, 3})
	w.String("hello")

	r := NewReader(w.Bytes())
	if r.U8() != 7 || r.U32() != 1<<30 || r.U64() != 1<<60 {
		t.Error("integer roundtrip failed")
	}
	if r.F64() != 3.14159 {
		t.Error("float roundtrip failed")
	}
	if b := r.Bytes32(); len(b) != 3 || b[2] != 3 {
		t.Error("bytes roundtrip failed")
	}
	if r.Str() != "hello" {
		t.Error("string roundtrip failed")
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Errorf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
}

func TestTruncation(t *testing.T) {
	w := NewWriter(16)
	w.U64(42)
	w.String("abcdef")
	enc := w.Bytes()
	for cut := 0; cut < len(enc); cut++ {
		r := NewReader(enc[:cut])
		r.U64()
		r.Str()
		if r.Err() == nil {
			t.Fatalf("no error at cut %d", cut)
		}
	}
	// Reads after an error return zero values and keep the error.
	r := NewReader(nil)
	if r.U32() != 0 || r.U64() != 0 || r.Bytes32() != nil {
		t.Error("post-error reads returned data")
	}
	if r.Err() == nil {
		t.Error("error lost")
	}
}

func TestBogusLengthRejected(t *testing.T) {
	w := NewWriter(8)
	w.U32(0xffffffff) // claims 4 GiB payload
	r := NewReader(w.Bytes())
	if r.Bytes32() != nil || r.Err() == nil {
		t.Error("bogus length accepted")
	}
}

func TestQuickRoundtrip(t *testing.T) {
	f := func(a uint8, b uint32, c uint64, f64 float64, blob []byte, s string) bool {
		w := NewWriter(32)
		w.U8(a)
		w.U32(b)
		w.U64(c)
		w.F64(f64)
		w.Bytes32(blob)
		w.String(s)
		r := NewReader(w.Bytes())
		if r.U8() != a || r.U32() != b || r.U64() != c {
			return false
		}
		got := r.F64()
		if got != f64 && !(got != got && f64 != f64) { // NaN-safe compare
			return false
		}
		rb := r.Bytes32()
		if string(rb) != string(blob) {
			return false
		}
		return r.Str() == s && r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestAppendBytes32MatchesBytes32: the backpatched form frames exactly what
// Bytes32 frames, for empty and non-empty fields alike.
func TestAppendBytes32MatchesBytes32(t *testing.T) {
	for _, b := range [][]byte{nil, {9}, []byte("a longer field")} {
		want := NewWriter(0)
		want.U8(1)
		want.Bytes32(b)
		got := NewWriter(0)
		got.U8(1)
		got.AppendBytes32(func(dst []byte) []byte { return append(dst, b...) })
		if string(got.Bytes()) != string(want.Bytes()) {
			t.Fatalf("AppendBytes32(%q) = % x, Bytes32 = % x", b, got.Bytes(), want.Bytes())
		}
	}
}
