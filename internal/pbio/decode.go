package pbio

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"

	"github.com/open-metadata/xmit/internal/meta"
)

// Decode unmarshals a complete PBIO message (8-byte format ID + body) into
// out, a pointer to a struct.  The wire format is resolved from the ID —
// locally or through the configured resolver — and the conversion plan for
// the (format, type) pair is compiled on first use and cached.  This is the
// "receiver makes right" step: byte order, field sizes, and field positions
// are converted from the sender's layout to the receiver's in one pass.
// It returns the wire format that described the message.
func (c *Context) Decode(msg []byte, out any) (*meta.Format, error) {
	id, body, err := ParseHeader(msg)
	if err != nil {
		return nil, err
	}
	f, err := c.LookupFormat(id)
	if err != nil {
		return nil, err
	}
	if err := c.DecodeBody(f, body, out); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeBody unmarshals a message body known to use format f into out.
// The format is validated on first sight (see checkFormat), so a corrupt
// or hostile format handed in directly yields an error, never a panic.
// Steady-state decodes — same format, same Go type, reused out value —
// take no locks and allocate nothing.
func (c *Context) DecodeBody(f *meta.Format, body []byte, out any) error {
	rv := reflect.ValueOf(out)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("pbio: decode target must be a non-nil pointer, got %T", out)
	}
	rv = rv.Elem()
	if rv.Kind() != reflect.Struct {
		return fmt.Errorf("pbio: decode target must point to a struct, got %T", out)
	}
	prog, err := c.decodePlan(f, rv.Type())
	if err != nil {
		return err
	}
	if len(body) < f.Size {
		return fmt.Errorf("pbio: body of %d bytes shorter than fixed block (%d) of format %q",
			len(body), f.Size, f.Name)
	}
	d := decoder{body: body, big: f.BigEndian, ptr: f.PointerSize}
	return d.runProg(prog, 0, rv)
}

// decodePlan returns the cached conversion plan for (format, type),
// compiling it on first use.  A stream decodes the same pair message after
// message, so the plan last used is checked first — two pointer compares
// instead of hashing an interface-keyed map key.  Behind it the cache is
// copy-on-write: the lookup is a single lock-free map read, which is what
// alternating formats fall back to.
func (c *Context) decodePlan(f *meta.Format, t reflect.Type) (*decProg, error) {
	if p := c.lastPlan.Load(); p != nil && p.format == f && p.goType == t {
		return p, nil
	}
	key := planKey{f: f, t: t}
	if p := (*c.plans.Load())[key]; p != nil {
		c.lastPlan.Store(p)
		return p, nil
	}
	if err := c.checkFormat(f); err != nil {
		return nil, err
	}
	p, err := compileDecoder(f, t)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if prev := (*c.plans.Load())[key]; prev != nil {
		p = prev // another goroutine won the compile race
	} else {
		cowInsert(&c.plans, key, p)
	}
	c.mu.Unlock()
	c.lastPlan.Store(p)
	return p, nil
}

// decProg is a compiled receiver-makes-right conversion for one
// (wire format, Go type) pair.
type decProg struct {
	format *meta.Format
	goType reflect.Type
	ops    []decOp
	zero   []int // Go fields with no wire counterpart, set to zero
}

type decOp struct {
	name      string
	kind      meta.Kind
	off       int
	size      int
	staticDim int
	isDyn     bool
	block     bool // array whose elements are one block move (blockMove)
	lenOff    int
	lenSize   int
	goField   int // -1: wire field skipped (receiver doesn't know it)
	sub       *decProg
}

func compileDecoder(f *meta.Format, t reflect.Type) (*decProg, error) {
	p := &decProg{format: f, goType: t}
	covered := make([]bool, t.NumField())
	for i := range f.Fields {
		fl := &f.Fields[i]
		op := decOp{
			name:      fl.Name,
			kind:      fl.Kind,
			off:       fl.Offset,
			size:      fl.Size,
			staticDim: fl.StaticDim,
			isDyn:     fl.IsDynamic(),
			goField:   -1,
		}
		if op.isDyn {
			j := f.FieldByName(fl.LengthField)
			if j < 0 {
				// A validated format cannot reach here, but decode
				// plans must never panic on one that skipped
				// validation (e.g. a hostile remotely-fetched XSD).
				return nil, fmt.Errorf("pbio: %s.%s: length field %q does not exist (format not validated?)",
					f.Name, fl.Name, fl.LengthField)
			}
			lf := &f.Fields[j]
			op.lenOff, op.lenSize = lf.Offset, lf.Size
		}
		gi := structFieldByName(t, fl.Name)
		if gi >= 0 {
			covered[gi] = true
			ft := t.Field(gi).Type
			et := ft
			if op.isDyn || op.staticDim > 0 {
				switch ft.Kind() {
				case reflect.Slice:
					et = ft.Elem()
				case reflect.Array:
					if op.isDyn {
						return nil, fmt.Errorf("pbio: %s.%s: dynamic array needs a Go slice, have %s",
							f.Name, fl.Name, ft)
					}
					if ft.Len() != op.staticDim {
						return nil, fmt.Errorf("pbio: %s.%s: Go array length %d != static dimension %d",
							f.Name, fl.Name, ft.Len(), op.staticDim)
					}
					et = ft.Elem()
				default:
					return nil, fmt.Errorf("pbio: %s.%s: array field needs a Go slice or array, have %s",
						f.Name, fl.Name, ft)
				}
			}
			if err := checkElemType(f.Name, fl, et); err != nil {
				return nil, err
			}
			op.block = blockMove(fl, et)
			op.goField = gi
			if fl.Kind == meta.Struct {
				sub, err := compileDecoder(fl.Sub, et)
				if err != nil {
					return nil, err
				}
				op.sub = sub
			}
		}
		p.ops = append(p.ops, op)
	}
	for gi := 0; gi < t.NumField(); gi++ {
		if !covered[gi] && t.Field(gi).IsExported() {
			p.zero = append(p.zero, gi)
		}
	}
	return p, nil
}

// decoder walks a message body.  Every read is bounds-checked: a corrupt or
// truncated message yields an error, never a panic.
type decoder struct {
	body []byte
	big  bool
	ptr  int
}

func (d *decoder) getUint(off, size int) (uint64, error) {
	if off < 0 || size < 1 || off > len(d.body)-size { // not off+size: a hostile 8-byte pointer can overflow it
		return 0, fmt.Errorf("pbio: read of %d bytes at offset %d exceeds body of %d bytes",
			size, off, len(d.body))
	}
	p := d.body[off:]
	if d.big {
		switch size {
		case 1:
			return uint64(p[0]), nil
		case 2:
			return uint64(binary.BigEndian.Uint16(p)), nil
		case 4:
			return uint64(binary.BigEndian.Uint32(p)), nil
		case 8:
			return binary.BigEndian.Uint64(p), nil
		}
	} else {
		switch size {
		case 1:
			return uint64(p[0]), nil
		case 2:
			return uint64(binary.LittleEndian.Uint16(p)), nil
		case 4:
			return uint64(binary.LittleEndian.Uint32(p)), nil
		case 8:
			return binary.LittleEndian.Uint64(p), nil
		}
	}
	return 0, fmt.Errorf("pbio: unsupported scalar size %d", size)
}

func (d *decoder) runProg(p *decProg, base int, v reflect.Value) error {
	for i := range p.ops {
		op := &p.ops[i]
		if op.goField < 0 {
			continue // field unknown to this receiver: skipped for free
		}
		fv := v.Field(op.goField)
		var err error
		switch {
		case op.isDyn:
			err = d.decodeDynamic(op, base, fv)
		case op.staticDim > 0:
			err = d.decodeStatic(op, base, fv)
		case op.kind == meta.Struct:
			err = d.runProg(op.sub, base+op.off, fv)
		case op.kind == meta.String:
			var s []byte
			if s, err = d.stringBytes(base + op.off); err == nil {
				// Only materialise a Go string when the value changed:
				// the comparison against a converted []byte does not
				// allocate, so re-decoding the same message into a
				// reused struct is allocation-free.
				if fv.String() != string(s) {
					fv.SetString(string(s))
				}
			}
		default:
			err = d.decodeScalar(op, base+op.off, fv)
		}
		if err != nil {
			return err
		}
	}
	for _, gi := range p.zero {
		v.Field(gi).SetZero()
	}
	return nil
}

func (d *decoder) decodeScalar(op *decOp, off int, fv reflect.Value) error {
	bits, err := d.getUint(off, op.size)
	if err != nil {
		return err
	}
	setScalar(fv, op.kind, op.size, bits)
	return nil
}

// setScalar converts one wire value into a Go field, handling sign
// extension, width changes, and float precision.
func setScalar(fv reflect.Value, kind meta.Kind, size int, bits uint64) {
	switch fv.Kind() {
	case reflect.Float32, reflect.Float64:
		fv.SetFloat(floatFromBits(size, bits))
	case reflect.Bool:
		fv.SetBool(bits != 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fv.SetInt(intFromBits(kind, size, bits))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fv.SetUint(bits)
	}
}

func floatFromBits(size int, bits uint64) float64 {
	if size == 4 {
		return float64(math.Float32frombits(uint32(bits)))
	}
	return math.Float64frombits(bits)
}

// intFromBits sign-extends signed wire integers to 64 bits.
func intFromBits(kind meta.Kind, size int, bits uint64) int64 {
	if kind != meta.Integer {
		return int64(bits)
	}
	shift := uint(64 - 8*size)
	return int64(bits<<shift) >> shift
}

// stringBytes returns the raw bytes of the length-prefixed string addressed
// by the pointer slot at slotOff, aliasing the message body.  Offset zero
// denotes the empty string (a nil slice).
func (d *decoder) stringBytes(slotOff int) ([]byte, error) {
	off, err := d.getUint(slotOff, d.ptr)
	if err != nil {
		return nil, err
	}
	if off == 0 {
		return nil, nil
	}
	n, err := d.getUint(int(off), 4)
	if err != nil {
		return nil, err
	}
	start := int(off) + 4
	if n > uint64(len(d.body)) || start+int(n) > len(d.body) {
		return nil, fmt.Errorf("pbio: string of %d bytes at offset %d exceeds body of %d bytes",
			n, off, len(d.body))
	}
	return d.body[start : start+int(n)], nil
}

// readString materialises the string addressed by the pointer slot at
// slotOff (the record-decode path, which builds fresh values anyway).
func (d *decoder) readString(slotOff int) (string, error) {
	b, err := d.stringBytes(slotOff)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// arrayFits reports whether n elements of size bytes starting at off lie
// entirely within the body: off >= 0 and off + n*size <= len(body), with
// the multiplication guarded against overflow by dividing instead.
func (d *decoder) arrayFits(off, n, size int) bool {
	return off >= 0 && size > 0 && n >= 0 && n <= (len(d.body)-off)/size
}

func (d *decoder) decodeStatic(op *decOp, base int, fv reflect.Value) error {
	if fv.Kind() == reflect.Slice {
		if fv.Len() != op.staticDim {
			fv.Set(reflect.MakeSlice(fv.Type(), op.staticDim, op.staticDim))
		}
	}
	off := base + op.off
	if op.kind != meta.Struct {
		if !d.arrayFits(off, op.staticDim, op.size) {
			return fmt.Errorf("pbio: field %q: static array exceeds body", op.name)
		}
		d.decodeElems(op, off, op.staticDim, fv)
		return nil
	}
	elemOff := off
	for k := 0; k < op.staticDim; k++ {
		if err := d.runProg(op.sub, elemOff, fv.Index(k)); err != nil {
			return err
		}
		elemOff += op.size
	}
	return nil
}

func (d *decoder) decodeDynamic(op *decOp, base int, fv reflect.Value) error {
	nBits, err := d.getUint(base+op.lenOff, op.lenSize)
	if err != nil {
		return err
	}
	n := int(intFromBits(meta.Integer, op.lenSize, nBits))
	if n < 0 {
		return fmt.Errorf("pbio: field %q: negative element count %d", op.name, n)
	}
	if n == 0 {
		if fv.IsNil() || fv.Len() != 0 {
			fv.Set(reflect.MakeSlice(fv.Type(), 0, 0))
		}
		return nil
	}
	offBits, err := d.getUint(base+op.off, d.ptr)
	if err != nil {
		return err
	}
	off := int(offBits)
	elemSize := op.size
	if op.kind == meta.Struct {
		elemSize = op.sub.format.Size
	}
	// A truncated message may declare more elements than the remaining
	// body holds; the explicit off + n*size <= len(body) check (arrayFits)
	// turns that into a decode error instead of a slice panic.
	if off == 0 || !d.arrayFits(off, n, elemSize) {
		return fmt.Errorf("pbio: field %q: %d elements of %d bytes at offset %d exceed body of %d bytes",
			op.name, n, elemSize, off, len(d.body))
	}
	if fv.Len() != n {
		fv.Set(reflect.MakeSlice(fv.Type(), n, n))
	}
	if op.kind == meta.Struct {
		elemOff := off
		for k := 0; k < n; k++ {
			if err := d.runProg(op.sub, elemOff, fv.Index(k)); err != nil {
				return err
			}
			elemOff += elemSize
		}
		return nil
	}
	d.decodeElems(op, off, n, fv)
	return nil
}

// decodeElems converts the elements of a numeric array, mirroring
// encodeElems: one block move when op.block holds, the reflect loop
// otherwise.  The caller has checked that n elements fit in the body.
func (d *decoder) decodeElems(op *decOp, off, n int, fv reflect.Value) {
	if op.block && getBlock(fv, d.body[off:], op.size, d.big) {
		return
	}
	elemOff := off
	for k := 0; k < n; k++ {
		bits, _ := d.getUint(elemOff, op.size) // bounds pre-checked by caller
		setScalar(fv.Index(k), op.kind, op.size, bits)
		elemOff += op.size
	}
}
