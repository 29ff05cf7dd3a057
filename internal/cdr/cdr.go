// Package cdr implements a CORBA Common Data Representation (CDR) style
// codec, the wire discipline used by IIOP — one of the paper's comparison
// baselines.
//
// CDR characteristics reproduced here:
//
//   - Every primitive is aligned to its natural boundary relative to the
//     start of the message body, which costs padding bytes and alignment
//     arithmetic per field.
//   - The sender writes in its native byte order and records it in a flag
//     byte; the receiver swaps if necessary ("reader makes right").
//   - Strings are a 4-byte length including a terminating NUL, then bytes.
//   - Sequences are a 4-byte element count followed by the elements.
//   - Structs are their members in declaration order, no names on the wire
//     (so unlike PBIO, both ends must agree exactly on the format).
//
// Because every member is visited and aligned individually, CDR cannot
// degenerate into block copies the way PBIO's sender-native layout can.
package cdr

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"

	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/refbind"
)

// Codec marshals one (format, Go type) pair in CDR form.
type Codec struct {
	goType    reflect.Type
	bounds    []refbind.Bound
	bigEndian bool // sender byte order (from the format's platform)
}

// NewCodec compiles a codec.  The sender writes in the byte order of the
// format's platform, as a CORBA implementation on that machine would.
func NewCodec(f *meta.Format, sample any) (*Codec, error) {
	t, err := refbind.StructType(sample)
	if err != nil {
		return nil, err
	}
	bounds, err := refbind.Compile(f, t, true)
	if err != nil {
		return nil, err
	}
	return &Codec{goType: t, bounds: bounds, bigEndian: f.BigEndian}, nil
}

// Encode appends the CDR encoding of v to dst.  The first byte is the byte
// order flag (0 = big endian, 1 = little endian, as in GIOP); the body is
// aligned relative to the byte after the flag... following GIOP practice,
// alignment is computed from the start of the body, which begins at offset
// 4 (the flag plus three reserved padding bytes).
func (c *Codec) Encode(dst []byte, v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return nil, fmt.Errorf("cdr: encode: nil pointer")
		}
		rv = rv.Elem()
	}
	if rv.Type() != c.goType {
		return nil, fmt.Errorf("cdr: encode: value type %s does not match bound type %s", rv.Type(), c.goType)
	}
	e := &encoder{buf: dst, base: len(dst) + 4, big: c.bigEndian}
	flag := byte(1)
	if c.bigEndian {
		flag = 0
	}
	e.buf = append(e.buf, flag, 0, 0, 0)
	if err := e.writeStruct(c.bounds, rv); err != nil {
		return nil, err
	}
	return e.buf, nil
}

type encoder struct {
	buf  []byte
	base int // offset of body start within buf; alignment is relative to it
	big  bool
}

func (e *encoder) align(n int) {
	pos := len(e.buf) - e.base
	pad := (n - pos%n) % n
	for i := 0; i < pad; i++ {
		e.buf = append(e.buf, 0)
	}
}

func (e *encoder) put(size int, bits uint64) {
	e.align(size)
	var tmp [8]byte
	if e.big {
		binary.BigEndian.PutUint64(tmp[:], bits<<(8*(8-size)))
		e.buf = append(e.buf, tmp[:size]...)
	} else {
		binary.LittleEndian.PutUint64(tmp[:], bits)
		e.buf = append(e.buf, tmp[:size]...)
	}
}

func (e *encoder) writeStruct(bounds []refbind.Bound, v reflect.Value) error {
	lengthFields := map[string]bool{}
	for i := range bounds {
		if lf := bounds[i].Field.LengthField; lf != "" {
			lengthFields[foldLower(lf)] = true
		}
	}
	for i := range bounds {
		b := &bounds[i]
		fl := b.Field
		if b.GoIndex < 0 || lengthFields[foldLower(fl.Name)] {
			// Length members are authoritative from the slice length
			// (CDR sequences also carry their own count; keeping the
			// member consistent matches the binary encoders).
			n := lengthOf(bounds, fl.Name, v)
			e.put(fl.Size, uint64(n))
			continue
		}
		fv := v.Field(b.GoIndex)
		switch {
		case fl.IsDynamic():
			n := fv.Len()
			e.put(4, uint64(n)) // sequence count
			for k := 0; k < n; k++ {
				if err := e.writeValue(fl, b, fv.Index(k)); err != nil {
					return err
				}
			}
		case fl.IsStaticArray():
			n := fv.Len()
			if n != fl.StaticDim {
				return fmt.Errorf("cdr: field %q: %d elements, want %d", fl.Name, n, fl.StaticDim)
			}
			for k := 0; k < n; k++ {
				if err := e.writeValue(fl, b, fv.Index(k)); err != nil {
					return err
				}
			}
		default:
			if err := e.writeValue(fl, b, fv); err != nil {
				return err
			}
		}
	}
	return nil
}

func lengthOf(bounds []refbind.Bound, name string, v reflect.Value) int {
	for i := range bounds {
		b := &bounds[i]
		if b.GoIndex >= 0 && b.Field.IsDynamic() &&
			equalFold(b.Field.LengthField, name) {
			return v.Field(b.GoIndex).Len()
		}
	}
	return 0
}

func foldLower(s string) string {
	out := []byte(s)
	for i := range out {
		if 'A' <= out[i] && out[i] <= 'Z' {
			out[i] += 'a' - 'A'
		}
	}
	return string(out)
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

func (e *encoder) writeValue(fl *meta.Field, b *refbind.Bound, fv reflect.Value) error {
	switch fl.Kind {
	case meta.Struct:
		return e.writeStruct(b.Sub, fv)
	case meta.String:
		s := fv.String()
		e.put(4, uint64(len(s)+1)) // length includes NUL
		e.buf = append(e.buf, s...)
		e.buf = append(e.buf, 0)
		return nil
	case meta.Float:
		if fl.Size == 4 {
			e.put(4, uint64(math.Float32bits(float32(fv.Float()))))
		} else {
			e.put(8, math.Float64bits(fv.Float()))
		}
		return nil
	case meta.Boolean:
		var bit uint64
		if truthy(fv) {
			bit = 1
		}
		e.put(fl.Size, bit)
		return nil
	default:
		switch fv.Kind() {
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			e.put(fl.Size, fv.Uint())
		default:
			e.put(fl.Size, uint64(fv.Int()))
		}
		return nil
	}
}

func truthy(fv reflect.Value) bool {
	switch fv.Kind() {
	case reflect.Bool:
		return fv.Bool()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return fv.Uint() != 0
	default:
		return fv.Int() != 0
	}
}

// Decode parses a CDR message into out, swapping byte order when the
// sender's flag differs from what was written (reader makes right).
func (c *Codec) Decode(data []byte, out any) error {
	rv := reflect.ValueOf(out)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("cdr: decode target must be a non-nil pointer, got %T", out)
	}
	rv = rv.Elem()
	if rv.Type() != c.goType {
		return fmt.Errorf("cdr: decode: target type %s does not match bound type %s", rv.Type(), c.goType)
	}
	if len(data) < 4 {
		return fmt.Errorf("cdr: message too short (%d bytes)", len(data))
	}
	d := &decoder{buf: data[4:], big: data[0] == 0}
	return d.readStruct(c.bounds, rv)
}

type decoder struct {
	buf []byte
	pos int
	big bool
}

func (d *decoder) align(n int) {
	d.pos += (n - d.pos%n) % n
}

func (d *decoder) get(size int) (uint64, error) {
	d.align(size)
	if d.pos+size > len(d.buf) {
		return 0, fmt.Errorf("cdr: read of %d bytes at %d exceeds body of %d", size, d.pos, len(d.buf))
	}
	var bits uint64
	p := d.buf[d.pos:]
	if d.big {
		for i := 0; i < size; i++ {
			bits = bits<<8 | uint64(p[i])
		}
	} else {
		for i := size - 1; i >= 0; i-- {
			bits = bits<<8 | uint64(p[i])
		}
	}
	d.pos += size
	return bits, nil
}

func (d *decoder) readStruct(bounds []refbind.Bound, v reflect.Value) error {
	for i := range bounds {
		b := &bounds[i]
		fl := b.Field
		if b.GoIndex < 0 {
			if _, err := d.get(fl.Size); err != nil { // discard length member
				return err
			}
			continue
		}
		fv := v.Field(b.GoIndex)
		switch {
		case fl.IsDynamic():
			nBits, err := d.get(4)
			if err != nil {
				return err
			}
			n := int(int32(nBits))
			if n < 0 || n > len(d.buf) {
				return fmt.Errorf("cdr: field %q: implausible element count %d", fl.Name, n)
			}
			fv.Set(reflect.MakeSlice(fv.Type(), n, n))
			for k := 0; k < n; k++ {
				if err := d.readValue(fl, b, fv.Index(k)); err != nil {
					return err
				}
			}
		case fl.IsStaticArray():
			if fv.Kind() == reflect.Slice && fv.Len() != fl.StaticDim {
				fv.Set(reflect.MakeSlice(fv.Type(), fl.StaticDim, fl.StaticDim))
			}
			for k := 0; k < fl.StaticDim; k++ {
				if err := d.readValue(fl, b, fv.Index(k)); err != nil {
					return err
				}
			}
		default:
			if err := d.readValue(fl, b, fv); err != nil {
				return err
			}
		}
	}
	return nil
}

func (d *decoder) readValue(fl *meta.Field, b *refbind.Bound, fv reflect.Value) error {
	switch fl.Kind {
	case meta.Struct:
		return d.readStruct(b.Sub, fv)
	case meta.String:
		nBits, err := d.get(4)
		if err != nil {
			return err
		}
		n := int(int32(nBits))
		if n < 1 || d.pos+n > len(d.buf) {
			return fmt.Errorf("cdr: field %q: bad string length %d", fl.Name, n)
		}
		fv.SetString(string(d.buf[d.pos : d.pos+n-1])) // drop NUL
		d.pos += n
		return nil
	case meta.Float:
		bits, err := d.get(fl.Size)
		if err != nil {
			return err
		}
		if fl.Size == 4 {
			fv.SetFloat(float64(math.Float32frombits(uint32(bits))))
		} else {
			fv.SetFloat(math.Float64frombits(bits))
		}
		return nil
	default:
		bits, err := d.get(fl.Size)
		if err != nil {
			return err
		}
		switch fv.Kind() {
		case reflect.Bool:
			fv.SetBool(bits != 0)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			fv.SetUint(bits)
		default:
			// Sign-extend signed kinds.
			if fl.Kind == meta.Integer {
				shift := uint(64 - 8*fl.Size)
				fv.SetInt(int64(bits<<shift) >> shift)
			} else {
				fv.SetInt(int64(bits))
			}
		}
		return nil
	}
}
