package pbio

import (
	"encoding/binary"
	"math/bits"
	"reflect"
	"unsafe"

	"github.com/open-metadata/xmit/internal/meta"
)

// Block-move array kernels.  A numeric array whose Go element has the wire
// element's width and whose value is its bits is moved as raw memory: one
// copy when the wire order is the host's, one 8-element block swap loop
// otherwise — the paper's "receiver makes right" at memory speed.  Only the
// Go-typed side is viewed through unsafe, and it is always aligned; the
// wire side stays []byte and assumes no alignment.  Apart from
// internal/meta's format-ID memo (an untyped atomic pointer), this is the
// only code in the module's internal packages that imports unsafe.

// hostBig reports whether this host stores multi-byte values big-endian.
var hostBig = binary.NativeEndian.Uint16([]byte{0, 1}) == 1

// blockMove reports whether array field fl, held in Go as elements of type
// et, moves as raw memory.  Width changes (Go float32 from a wire double,
// Go int from a wire int32) stay on the reflect loop, as do bools and
// enums: decode normalises any non-zero wire byte to true, and a raw copy
// could produce an invalid Go bool.
func blockMove(fl *meta.Field, et reflect.Type) bool {
	if !fl.IsDynamic() && fl.StaticDim == 0 {
		return false
	}
	if size := fl.Size; int(et.Size()) != size || (size != 1 && size != 4 && size != 8) {
		return false
	}
	switch et.Kind() {
	case reflect.Float32, reflect.Float64:
		return fl.Kind == meta.Float
	case reflect.Int, reflect.Int8, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint32, reflect.Uint64:
		return fl.Kind == meta.Integer || fl.Kind == meta.Unsigned || fl.Kind == meta.Char
	}
	return false
}

// elemMem returns the address and length of fv's elements: a slice's
// backing array, or an addressable Go array in place.  ok is false for an
// array with no address (a struct handed to Encode by value).
func elemMem(fv reflect.Value) (p unsafe.Pointer, n int, ok bool) {
	switch {
	case fv.Kind() == reflect.Slice:
		return fv.UnsafePointer(), fv.Len(), true
	case fv.CanAddr():
		return unsafe.Pointer(fv.UnsafeAddr()), fv.Len(), true
	}
	return nil, 0, false
}

// putBlock writes fv's elements into dst as size-byte wire elements in the
// given byte order.  It reports false, writing nothing, when fv's memory
// cannot be reached; the caller then takes the reflect loop.
func putBlock(dst []byte, fv reflect.Value, size int, big bool) bool {
	p, n, ok := elemMem(fv)
	switch {
	case !ok:
		return false
	case size == 8:
		put64s(dst, p, n, big)
	case size == 4:
		put32s(dst, p, n, big)
	default:
		copy(dst, unsafe.Slice((*byte)(p), n))
	}
	return true
}

// getBlock is putBlock's inverse: it fills fv's elements from src.
func getBlock(fv reflect.Value, src []byte, size int, big bool) bool {
	p, n, ok := elemMem(fv)
	switch {
	case !ok:
		return false
	case size == 8:
		get64s(p, n, src, big)
	case size == 4:
		get32s(p, n, src, big)
	default:
		copy(unsafe.Slice((*byte)(p), n), src)
	}
	return true
}

// put64s writes the n 8-byte elements at p into dst in wire order big.
func put64s(dst []byte, p unsafe.Pointer, n int, big bool) {
	if big == hostBig {
		copy(dst, unsafe.Slice((*byte)(p), 8*n))
		return
	}
	s, dst := unsafe.Slice((*uint64)(p), n), dst[:8*n]
	k := 0
	for ; k+8 <= n; k += 8 {
		v, w := (*[8]uint64)(unsafe.Add(p, 8*k)), (*[64]byte)(dst[8*k:])
		binary.NativeEndian.PutUint64(w[0:], bits.ReverseBytes64(v[0]))
		binary.NativeEndian.PutUint64(w[8:], bits.ReverseBytes64(v[1]))
		binary.NativeEndian.PutUint64(w[16:], bits.ReverseBytes64(v[2]))
		binary.NativeEndian.PutUint64(w[24:], bits.ReverseBytes64(v[3]))
		binary.NativeEndian.PutUint64(w[32:], bits.ReverseBytes64(v[4]))
		binary.NativeEndian.PutUint64(w[40:], bits.ReverseBytes64(v[5]))
		binary.NativeEndian.PutUint64(w[48:], bits.ReverseBytes64(v[6]))
		binary.NativeEndian.PutUint64(w[56:], bits.ReverseBytes64(v[7]))
	}
	for ; k < n; k++ {
		binary.NativeEndian.PutUint64(dst[8*k:], bits.ReverseBytes64(s[k]))
	}
}

// put32s writes the n 4-byte elements at p into dst in wire order big.
func put32s(dst []byte, p unsafe.Pointer, n int, big bool) {
	if big == hostBig {
		copy(dst, unsafe.Slice((*byte)(p), 4*n))
		return
	}
	s, dst := unsafe.Slice((*uint32)(p), n), dst[:4*n]
	k := 0
	for ; k+8 <= n; k += 8 {
		v, w := (*[8]uint32)(unsafe.Add(p, 4*k)), (*[32]byte)(dst[4*k:])
		binary.NativeEndian.PutUint32(w[0:], bits.ReverseBytes32(v[0]))
		binary.NativeEndian.PutUint32(w[4:], bits.ReverseBytes32(v[1]))
		binary.NativeEndian.PutUint32(w[8:], bits.ReverseBytes32(v[2]))
		binary.NativeEndian.PutUint32(w[12:], bits.ReverseBytes32(v[3]))
		binary.NativeEndian.PutUint32(w[16:], bits.ReverseBytes32(v[4]))
		binary.NativeEndian.PutUint32(w[20:], bits.ReverseBytes32(v[5]))
		binary.NativeEndian.PutUint32(w[24:], bits.ReverseBytes32(v[6]))
		binary.NativeEndian.PutUint32(w[28:], bits.ReverseBytes32(v[7]))
	}
	for ; k < n; k++ {
		binary.NativeEndian.PutUint32(dst[4*k:], bits.ReverseBytes32(s[k]))
	}
}

// get64s fills the n 8-byte elements at p from src, in wire order big.
func get64s(p unsafe.Pointer, n int, src []byte, big bool) {
	if big == hostBig {
		copy(unsafe.Slice((*byte)(p), 8*n), src)
		return
	}
	s, src := unsafe.Slice((*uint64)(p), n), src[:8*n]
	k := 0
	for ; k+8 <= n; k += 8 {
		v, w := (*[8]uint64)(unsafe.Add(p, 8*k)), (*[64]byte)(src[8*k:])
		v[0] = bits.ReverseBytes64(binary.NativeEndian.Uint64(w[0:]))
		v[1] = bits.ReverseBytes64(binary.NativeEndian.Uint64(w[8:]))
		v[2] = bits.ReverseBytes64(binary.NativeEndian.Uint64(w[16:]))
		v[3] = bits.ReverseBytes64(binary.NativeEndian.Uint64(w[24:]))
		v[4] = bits.ReverseBytes64(binary.NativeEndian.Uint64(w[32:]))
		v[5] = bits.ReverseBytes64(binary.NativeEndian.Uint64(w[40:]))
		v[6] = bits.ReverseBytes64(binary.NativeEndian.Uint64(w[48:]))
		v[7] = bits.ReverseBytes64(binary.NativeEndian.Uint64(w[56:]))
	}
	for ; k < n; k++ {
		s[k] = bits.ReverseBytes64(binary.NativeEndian.Uint64(src[8*k:]))
	}
}

// get32s fills the n 4-byte elements at p from src, in wire order big.
func get32s(p unsafe.Pointer, n int, src []byte, big bool) {
	if big == hostBig {
		copy(unsafe.Slice((*byte)(p), 4*n), src)
		return
	}
	s, src := unsafe.Slice((*uint32)(p), n), src[:4*n]
	k := 0
	for ; k+8 <= n; k += 8 {
		v, w := (*[8]uint32)(unsafe.Add(p, 4*k)), (*[32]byte)(src[4*k:])
		v[0] = bits.ReverseBytes32(binary.NativeEndian.Uint32(w[0:]))
		v[1] = bits.ReverseBytes32(binary.NativeEndian.Uint32(w[4:]))
		v[2] = bits.ReverseBytes32(binary.NativeEndian.Uint32(w[8:]))
		v[3] = bits.ReverseBytes32(binary.NativeEndian.Uint32(w[12:]))
		v[4] = bits.ReverseBytes32(binary.NativeEndian.Uint32(w[16:]))
		v[5] = bits.ReverseBytes32(binary.NativeEndian.Uint32(w[20:]))
		v[6] = bits.ReverseBytes32(binary.NativeEndian.Uint32(w[24:]))
		v[7] = bits.ReverseBytes32(binary.NativeEndian.Uint32(w[28:]))
	}
	for ; k < n; k++ {
		s[k] = bits.ReverseBytes32(binary.NativeEndian.Uint32(src[4*k:]))
	}
}
