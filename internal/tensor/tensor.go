// Package tensor provides the basic value type stored by EvoStore: dense,
// typed, multi-dimensional arrays of model parameters (weights, biases,
// batch-norm statistics, ...).
//
// Tensors in this package are deliberately simple: a dtype, a shape and a
// flat byte buffer. EvoStore never computes with tensors beyond filling,
// copying, hashing and comparing them, so no arithmetic kernels are needed.
package tensor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
)

// DType identifies the element type of a Tensor.
type DType uint8

// Supported element types.
const (
	Float32 DType = iota
	Float64
	Int32
	Int64
	Uint8
)

// Size returns the size of one element in bytes.
func (d DType) Size() int {
	switch d {
	case Float32, Int32:
		return 4
	case Float64, Int64:
		return 8
	case Uint8:
		return 1
	}
	panic(fmt.Sprintf("tensor: unknown dtype %d", d))
}

// String returns the conventional name of the dtype.
func (d DType) String() string {
	switch d {
	case Float32:
		return "float32"
	case Float64:
		return "float64"
	case Int32:
		return "int32"
	case Int64:
		return "int64"
	case Uint8:
		return "uint8"
	}
	return fmt.Sprintf("dtype(%d)", d)
}

// ParseDType converts a dtype name back to its DType. It is the inverse of
// DType.String for supported types.
func ParseDType(s string) (DType, error) {
	switch s {
	case "float32":
		return Float32, nil
	case "float64":
		return Float64, nil
	case "int32":
		return Int32, nil
	case "int64":
		return Int64, nil
	case "uint8":
		return Uint8, nil
	}
	return 0, fmt.Errorf("tensor: unknown dtype %q", s)
}

// Tensor is a dense array of parameters. Data is stored little-endian in a
// flat buffer of NumElements()*DType.Size() bytes.
type Tensor struct {
	Name  string
	DType DType
	Shape []int
	Data  []byte
}

// NumElements returns the product of the shape dimensions. A scalar (empty
// shape) has one element.
func NumElements(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// SizeBytes returns the size of the tensor's payload in bytes.
func (t *Tensor) SizeBytes() int { return len(t.Data) }

// NumElements returns the number of elements implied by the shape.
func (t *Tensor) NumElements() int { return NumElements(t.Shape) }

// New allocates a zero-filled tensor with the given name, dtype and shape.
func New(name string, dt DType, shape ...int) *Tensor {
	n := NumElements(shape)
	if n < 0 {
		panic(fmt.Sprintf("tensor: negative element count for shape %v", shape))
	}
	return &Tensor{
		Name:  name,
		DType: dt,
		Shape: append([]int(nil), shape...),
		Data:  make([]byte, n*dt.Size()),
	}
}

// Validate checks that the buffer length matches dtype and shape.
func (t *Tensor) Validate() error {
	want := t.NumElements() * t.DType.Size()
	if len(t.Data) != want {
		return fmt.Errorf("tensor %q: have %d data bytes, want %d for %s%v",
			t.Name, len(t.Data), want, t.DType, t.Shape)
	}
	for _, d := range t.Shape {
		if d < 0 {
			return fmt.Errorf("tensor %q: negative dimension in shape %v", t.Name, t.Shape)
		}
	}
	return nil
}

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{
		Name:  t.Name,
		DType: t.DType,
		Shape: append([]int(nil), t.Shape...),
		Data:  append([]byte(nil), t.Data...),
	}
	return c
}

// SameSpec reports whether two tensors have identical name, dtype and shape
// (but not necessarily identical contents).
func (t *Tensor) SameSpec(o *Tensor) bool {
	if t.Name != o.Name || t.DType != o.DType || len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// Equal reports whether two tensors have identical spec and contents.
func (t *Tensor) Equal(o *Tensor) bool {
	return t.SameSpec(o) && bytes.Equal(t.Data, o.Data)
}

// fingerprintSeed keys Fingerprint. It is drawn once per process.
var fingerprintSeed = maphash.MakeSeed()

// Fingerprint returns a 64-bit content hash covering name, dtype, shape and
// data. It is used for fast modified-tensor detection during diffing.
//
// The hash is hash/maphash under a seed drawn once per process: equal
// tensors fingerprint equally within one process, but the value differs
// between processes, so a fingerprint must never be persisted or sent.
func (t *Tensor) Fingerprint() uint64 {
	var h maphash.Hash
	h.SetSeed(fingerprintSeed)
	h.WriteString(t.Name)
	var buf [8]byte
	buf[0] = byte(t.DType)
	h.Write(buf[:1])
	for _, d := range t.Shape {
		binary.LittleEndian.PutUint64(buf[:], uint64(d))
		h.Write(buf[:])
	}
	h.Write(t.Data)
	return h.Sum64()
}

// Float32At returns element i interpreted as float32. It panics if the dtype
// is not Float32 or the index is out of range.
func (t *Tensor) Float32At(i int) float32 {
	if t.DType != Float32 {
		panic("tensor: Float32At on " + t.DType.String())
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(t.Data[i*4:]))
}

// SetFloat32 sets element i to v. It panics if the dtype is not Float32.
func (t *Tensor) SetFloat32(i int, v float32) {
	if t.DType != Float32 {
		panic("tensor: SetFloat32 on " + t.DType.String())
	}
	binary.LittleEndian.PutUint32(t.Data[i*4:], math.Float32bits(v))
}

// FillSeeded fills the tensor with a deterministic pseudo-random pattern
// derived from seed. It is used to materialize "trained" weights in tests
// and benchmarks: two tensors filled with the same seed are identical, and
// any other seed produces different contents with overwhelming probability.
func (t *Tensor) FillSeeded(seed uint64) {
	// SplitMix64: tiny, fast, high-quality for this purpose.
	x := seed ^ uint64(len(t.Data))*0x9e3779b97f4a7c15
	i := 0
	for ; i+8 <= len(t.Data); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		binary.LittleEndian.PutUint64(t.Data[i:], z)
	}
	if i < len(t.Data) {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], z)
		copy(t.Data[i:], buf[:len(t.Data)-i])
	}
}

// Perturb deterministically modifies the tensor contents as a function of
// seed, simulating a training update. The result differs from the previous
// contents for any non-degenerate tensor.
func (t *Tensor) Perturb(seed uint64) {
	if len(t.Data) == 0 {
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], seed*0x9e3779b97f4a7c15+1)
	for i := range t.Data {
		t.Data[i] ^= buf[i&7] | 1
	}
}

// String implements fmt.Stringer with a compact, loggable description.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor(%q %s%v %dB)", t.Name, t.DType, t.Shape, len(t.Data))
}
