// Package dtype defines the element type system shared by objects, queries,
// and evaluation kernels.
//
// PDC objects are byte streams; a data object additionally declares the
// element type of its array (the paper supports float, double, int,
// unsigned, long long, ...). Query values arrive as float64 (wide enough to
// represent every supported type exactly except the extreme ends of the
// 64-bit integer ranges, which scientific range queries do not use) and are
// compared in the object's native domain by the kernels in internal/exec.
package dtype

import (
	"fmt"
	"math"
	"unsafe"
)

// Type identifies the element type of a data object.
type Type uint8

// Supported element types. The zero value Invalid is deliberately not a
// usable type so that uninitialized metadata is caught early.
const (
	Invalid Type = iota
	Float32
	Float64
	Int8
	Int16
	Int32
	Int64
	Uint8
	Uint16
	Uint32
	Uint64
)

var typeNames = [...]string{
	Invalid: "invalid",
	Float32: "float32",
	Float64: "float64",
	Int8:    "int8",
	Int16:   "int16",
	Int32:   "int32",
	Int64:   "int64",
	Uint8:   "uint8",
	Uint16:  "uint16",
	Uint32:  "uint32",
	Uint64:  "uint64",
}

var typeSizes = [...]int{
	Invalid: 0,
	Float32: 4,
	Float64: 8,
	Int8:    1,
	Int16:   2,
	Int32:   4,
	Int64:   8,
	Uint8:   1,
	Uint16:  2,
	Uint32:  4,
	Uint64:  8,
}

// String returns the Go-style name of the type.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Size returns the element size in bytes (0 for Invalid).
func (t Type) Size() int {
	if int(t) < len(typeSizes) {
		return typeSizes[t]
	}
	return 0
}

// Valid reports whether t is a defined, usable element type.
func (t Type) Valid() bool { return t > Invalid && int(t) < len(typeNames) }

// IsFloat reports whether t is a floating-point type.
func (t Type) IsFloat() bool { return t == Float32 || t == Float64 }

// Parse returns the Type with the given name.
func Parse(name string) (Type, error) {
	for t, n := range typeNames {
		if n == name && Type(t) != Invalid {
			return Type(t), nil
		}
	}
	return Invalid, fmt.Errorf("dtype: unknown type %q", name)
}

// ROBytes is a read-only view of a byte extent. The storage layer
// (simio.Store) and the region cache (exec.Cache) return their internal
// buffers as ROBytes so reads are zero-copy; in exchange, holders must
// never write through the view — extents and cached regions are shared
// by every concurrent query and by the store itself.
//
// The contract is enforced statically: the aliasguard analyzer flags
// any index assignment, copy destination, or append through a value of
// an immutable-marked type (including values laundered through a
// []byte conversion). Because a named slice type is assignable to
// []byte, read-only consumers (dtype.View, dtype.At, kernels) accept
// ROBytes arguments with no conversion churn. Use Clone for the rare
// caller that genuinely needs a private mutable copy.
//
//lint:immutable
type ROBytes []byte

// Clone returns a mutable copy of the view's bytes.
func (b ROBytes) Clone() []byte {
	return append([]byte(nil), b...)
}

// Native is the constraint satisfied by every supported element type.
type Native interface {
	~float32 | ~float64 | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint8 | ~uint16 | ~uint32 | ~uint64
}

// View reinterprets a byte slice as a slice of E without copying. The byte
// slice length must be a multiple of the element size; excess bytes beyond
// the last whole element are ignored.
func View[E Native](b []byte) []E {
	var e E
	sz := int(unsafe.Sizeof(e))
	n := len(b) / sz
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*E)(unsafe.Pointer(&b[0])), n)
}

// Bytes reinterprets a slice of E as its backing bytes without copying.
func Bytes[E Native](s []E) []byte {
	if len(s) == 0 {
		return nil
	}
	var e E
	sz := int(unsafe.Sizeof(e))
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*sz)
}

// Count returns how many whole elements of type t fit in n bytes.
func (t Type) Count(n int) int {
	if !t.Valid() {
		return 0
	}
	return n / t.Size()
}

// At returns element i of data (raw bytes of element type t) as float64.
// It is the slow generic accessor used by correctness checks and small
// probes; bulk kernels use View.
func At(t Type, data []byte, i int) float64 {
	switch t {
	case Float32:
		return float64(View[float32](data)[i])
	case Float64:
		return View[float64](data)[i]
	case Int8:
		return float64(View[int8](data)[i])
	case Int16:
		return float64(View[int16](data)[i])
	case Int32:
		return float64(View[int32](data)[i])
	case Int64:
		return float64(View[int64](data)[i])
	case Uint8:
		return float64(View[uint8](data)[i])
	case Uint16:
		return float64(View[uint16](data)[i])
	case Uint32:
		return float64(View[uint32](data)[i])
	case Uint64:
		return float64(View[uint64](data)[i])
	}
	panic("dtype: At on invalid type")
}

// Put stores v (converted to element type t) at element i of data.
func Put(t Type, data []byte, i int, v float64) {
	switch t {
	case Float32:
		View[float32](data)[i] = float32(v)
	case Float64:
		View[float64](data)[i] = v
	case Int8:
		View[int8](data)[i] = int8(v)
	case Int16:
		View[int16](data)[i] = int16(v)
	case Int32:
		View[int32](data)[i] = int32(v)
	case Int64:
		View[int64](data)[i] = int64(v)
	case Uint8:
		View[uint8](data)[i] = uint8(v)
	case Uint16:
		View[uint16](data)[i] = uint16(v)
	case Uint32:
		View[uint32](data)[i] = uint32(v)
	case Uint64:
		View[uint64](data)[i] = uint64(v)
	default:
		panic("dtype: Put on invalid type")
	}
}

// MinMax returns the minimum and maximum element of data as float64.
// It returns (+Inf, -Inf) for empty data so that merging is a no-op.
// NaN elements are skipped: every comparison with NaN is false.
func MinMax(t Type, data []byte) (lo, hi float64) {
	switch t {
	case Float32:
		return minMax(View[float32](data))
	case Float64:
		return minMax(View[float64](data))
	case Int8:
		return minMax(View[int8](data))
	case Int16:
		return minMax(View[int16](data))
	case Int32:
		return minMax(View[int32](data))
	case Int64:
		return minMax(View[int64](data))
	case Uint8:
		return minMax(View[uint8](data))
	case Uint16:
		return minMax(View[uint16](data))
	case Uint32:
		return minMax(View[uint32](data))
	case Uint64:
		return minMax(View[uint64](data))
	}
	return math.Inf(1), math.Inf(-1)
}

// minMax is MinMax over typed elements, each widened to float64 before
// it is compared.
func minMax[E Native](vals []E) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, e := range vals {
		v := float64(e)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
