package pbio

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"

	"github.com/open-metadata/xmit/internal/meta"
)

// Encode marshals v into a freshly allocated complete PBIO message: the
// 8-byte format ID followed by the message body (fixed block + variable
// section).  The buffer is sized exactly via the size-precomputation pass,
// so Encode performs a single allocation.  Hot paths should prefer
// EncodeTo or AppendEncode with a pooled buffer (see GetBuffer), which
// allocate nothing in steady state.
func (b *Binding) Encode(v any) ([]byte, error) {
	rv, err := b.checkValue(v)
	if err != nil {
		return nil, err
	}
	n, err := sizeProg(b.prog, rv)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, HeaderSize+n)
	buf = AppendHeader(buf, b.id)
	return b.encodeBody(buf, rv)
}

// AppendEncode appends the complete message (header + body) for v to dst
// and returns the extended slice.  With a dst of sufficient capacity it
// allocates nothing.
func (b *Binding) AppendEncode(dst []byte, v any) ([]byte, error) {
	rv, err := b.checkValue(v)
	if err != nil {
		return nil, err
	}
	dst = AppendHeader(dst, b.id)
	return b.encodeBody(dst, rv)
}

// EncodeTo encodes the complete message for v into dst's storage, reusing
// its capacity (dst's length is ignored), and returns the encoded slice.
// This is the zero-allocation hot-path API: with a pooled or amortised dst
// and v passed as a pointer, steady-state encodes allocate nothing.
func (b *Binding) EncodeTo(dst []byte, v any) ([]byte, error) {
	return b.AppendEncode(dst[:0], v)
}

// EncodeBody appends the message body for v to dst and returns the extended
// slice.  The body is the unit the paper's encode-time figures measure: the
// sender-native fixed block plus the variable section, with no message
// header.
func (b *Binding) EncodeBody(dst []byte, v any) ([]byte, error) {
	rv, err := b.checkValue(v)
	if err != nil {
		return nil, err
	}
	return b.encodeBody(dst, rv)
}

// checkValue dereferences v and checks it against the bound Go type.
func (b *Binding) checkValue(v any) (reflect.Value, error) {
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return rv, fmt.Errorf("pbio: encode: nil pointer")
		}
		rv = rv.Elem()
	}
	if rv.Type() != b.prog.goType {
		return rv, fmt.Errorf("pbio: encode: value type %s does not match bound type %s",
			rv.Type(), b.prog.goType)
	}
	return rv, nil
}

func (b *Binding) encodeBody(dst []byte, rv reflect.Value) ([]byte, error) {
	e := encoder{buf: dst, base: len(dst), big: b.format.BigEndian, ptr: b.format.PointerSize}
	e.buf = grow(e.buf, b.format.Size)
	if err := e.runProg(b.prog, 0, rv); err != nil {
		return nil, err
	}
	return e.buf, nil
}

// EncodedSize returns the number of body bytes Encode would produce for v.
// It walks the compiled program and the value's variable-length fields
// without encoding anything, so it is exact and allocation-free.
func (b *Binding) EncodedSize(v any) (int, error) {
	rv, err := b.checkValue(v)
	if err != nil {
		return 0, err
	}
	return sizeProg(b.prog, rv)
}

// encoder carries the growing message buffer.  All offsets are relative to
// base, the start of the message body within buf.
type encoder struct {
	buf  []byte
	base int
	big  bool
	ptr  int
}

// grow extends b by n zero bytes.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		nb := b[: len(b)+n : cap(b)]
		clear(nb[len(b):])
		return nb
	}
	return append(b, make([]byte, n)...)
}

// extend is grow without the zeroing, for a region the caller overwrites.
func extend(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[:len(b)+n]
	}
	return append(b, make([]byte, n)...)
}

func (e *encoder) varOffset() int { return len(e.buf) - e.base }

func (e *encoder) putUint(off, size int, v uint64) {
	p := e.buf[e.base+off:]
	if e.big {
		switch size {
		case 1:
			p[0] = byte(v)
		case 2:
			binary.BigEndian.PutUint16(p, uint16(v))
		case 4:
			binary.BigEndian.PutUint32(p, uint32(v))
		case 8:
			binary.BigEndian.PutUint64(p, v)
		}
		return
	}
	switch size {
	case 1:
		p[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(p, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(p, uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(p, v)
	}
}

func (e *encoder) getUint(off, size int) uint64 {
	p := e.buf[e.base+off:]
	if e.big {
		switch size {
		case 1:
			return uint64(p[0])
		case 2:
			return uint64(binary.BigEndian.Uint16(p))
		case 4:
			return uint64(binary.BigEndian.Uint32(p))
		case 8:
			return binary.BigEndian.Uint64(p)
		}
		return 0
	}
	switch size {
	case 1:
		return uint64(p[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(p))
	case 4:
		return uint64(binary.LittleEndian.Uint32(p))
	case 8:
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// runProg encodes one struct image whose fixed block begins at offset base
// (relative to the message body start); the block must already be allocated
// and zeroed.
func (e *encoder) runProg(p *encProg, base int, v reflect.Value) error {
	for i := range p.ops {
		op := &p.ops[i]
		if op.goField < 0 {
			continue // synthesized length field, written by its array op
		}
		fv := v.Field(op.goField)
		switch {
		case op.isDyn:
			if err := e.encodeDynamic(p, op, base, fv); err != nil {
				return err
			}
		case op.staticDim > 0:
			if err := e.encodeStatic(op, base, fv); err != nil {
				return err
			}
		case op.kind == meta.Struct:
			if err := e.runProg(op.sub, base+op.off, fv); err != nil {
				return err
			}
		case op.kind == meta.String:
			e.encodeString(base+op.off, fv.String())
		default:
			e.putScalar(base+op.off, op.size, op.kind, fv)
		}
	}
	return nil
}

// putScalar writes one numeric/boolean value at the given offset.
func (e *encoder) putScalar(off, size int, kind meta.Kind, fv reflect.Value) {
	var bits uint64
	switch fv.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		bits = uint64(fv.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		bits = fv.Uint()
	case reflect.Bool:
		if fv.Bool() {
			bits = 1
		}
	case reflect.Float32, reflect.Float64:
		if size == 4 {
			bits = uint64(math.Float32bits(float32(fv.Float())))
		} else {
			bits = math.Float64bits(fv.Float())
		}
	}
	_ = kind
	e.putUint(off, size, bits)
}

// encodeString appends the string bytes to the variable section as a
// length-prefixed chunk and stores its offset in the pointer slot.  Offset
// zero denotes the empty string.
func (e *encoder) encodeString(slotOff int, s string) {
	if len(s) == 0 {
		return // slot already zero
	}
	off := e.varOffset()
	e.buf = grow(e.buf, 4+len(s))
	e.putUint(off, 4, uint64(len(s)))
	copy(e.buf[e.base+off+4:], s)
	e.putUint(slotOff, e.ptr, uint64(off))
}

func (e *encoder) encodeStatic(op *encOp, base int, fv reflect.Value) error {
	n := fv.Len()
	if fv.Kind() == reflect.Slice && n > op.staticDim {
		return fmt.Errorf("pbio: field %q: slice length %d exceeds static dimension %d",
			op.name, n, op.staticDim)
	}
	if op.kind != meta.Struct {
		e.encodeElems(op, base+op.off, fv)
		return nil
	}
	elemOff := base + op.off
	for k := 0; k < n; k++ {
		if err := e.runProg(op.sub, elemOff, fv.Index(k)); err != nil {
			return err
		}
		elemOff += op.size
	}
	return nil
}

func (e *encoder) encodeDynamic(p *encProg, op *encOp, base int, fv reflect.Value) error {
	n := fv.Len()
	if op.firstDyn {
		e.putUint(base+op.lenOff, op.lenSize, uint64(n))
	} else if got := e.getUint(base+op.lenOff, op.lenSize); got != uint64(n) {
		return fmt.Errorf("pbio: field %q: length %d disagrees with shared length field value %d",
			op.name, n, got)
	}
	if n == 0 {
		return nil // slot stays zero
	}
	off := e.varOffset()
	if op.kind == meta.Struct {
		e.buf = grow(e.buf, n*op.sub.format.Size)
		elemOff := off
		for k := 0; k < n; k++ {
			if err := e.runProg(op.sub, elemOff, fv.Index(k)); err != nil {
				return err
			}
			elemOff += op.sub.format.Size
		}
	} else {
		switch op.size {
		case 1, 2, 4, 8: // encodeElems writes every byte: no pre-zero
			e.buf = extend(e.buf, n*op.size)
		default:
			e.buf = grow(e.buf, n*op.size)
		}
		e.encodeElems(op, off, fv)
	}
	e.putUint(base+op.off, e.ptr, uint64(off))
	return nil
}

// encodeElems writes the elements of a numeric array.  An array whose Go
// element has the wire width and kind family (op.block) is one block move —
// a copy when the wire order is the host's, a block swap otherwise (see
// kernels.go); bools, enums, width changes and Go arrays passed by value
// take the reflect loop.
func (e *encoder) encodeElems(op *encOp, off int, fv reflect.Value) {
	if op.block && putBlock(e.buf[e.base+off:], fv, op.size, e.big) {
		return
	}
	n := fv.Len()
	elemOff := off
	for k := 0; k < n; k++ {
		e.putScalar(elemOff, op.size, op.kind, fv.Index(k))
		elemOff += op.size
	}
}
