package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// Payload codecs. Every typed send/receive lowers onto one byte envelope;
// float32 slices — the hot ghost-halo path — are reinterpreted in place
// rather than copied, so the inproc transport preserves the original
// by-reference handoff bitwise (sender's backing array arrives at the
// receiver) and the tcp path serializes without a marshaling pass.

// floatsToBytes reinterprets v as its underlying bytes (no copy).
func floatsToBytes(v []float32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
}

// bytesToFloats reinterprets b as float32s, copying only in the rare case
// of a misaligned buffer. Frames produced by floatsToBytes are always
// 4-aligned (they alias a []float32); freshly read tcp frames are Go heap
// allocations, which are at least 4-byte aligned for any multiple-of-4
// size, so the copy path exists as a guard, not a cost.
func bytesToFloats(b []byte) []float32 {
	if len(b) == 0 {
		return nil
	}
	if len(b)%4 != 0 {
		panic(fmt.Sprintf("mpi: %d-byte payload is not a float32 array", len(b)))
	}
	n := len(b) / 4
	if uintptr(unsafe.Pointer(&b[0]))%4 != 0 {
		out := make([]float32, n)
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), len(b)), b)
		return out
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), n)
}

// intsToBytes encodes int64 values little-endian (the wire byte order).
func intsToBytes(v []int64) []byte {
	if len(v) == 0 {
		return nil
	}
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

// bytesToInts decodes a payload written by intsToBytes.
func bytesToInts(b []byte) []int64 {
	if len(b)%8 != 0 {
		panic(fmt.Sprintf("mpi: %d-byte payload is not an int64 array", len(b)))
	}
	v := make([]int64, len(b)/8)
	for i := range v {
		v[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

func f64SliceToBytes(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

func bytesToF64Slice(b []byte) []float64 {
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}
