package pbio

import (
	"fmt"
	"math"

	"github.com/open-metadata/xmit/internal/meta"
)

// Wire-to-wire projection.
//
// A Projection converts a message body written under one format straight
// into the body another format would have carried — the same receiver-
// makes-right idea as decProg, with a second wire layout as the receiver
// instead of a Go struct.  Fields are matched by name: fields the
// destination lacks are dropped, fields the source lacks stay zero, shared
// fields are converted through the canonical value rules of Record (sign
// or zero extension, truncation, float resize, boolean normalisation), and
// the variable section — strings, dynamic arrays, the variable parts of
// nested records — is rebuilt under the destination's byte order and
// pointer size in destination declaration order.
//
// The plan is compiled once per (source, destination) pair into a flat
// step list; nothing metadata-shaped is paid per message.  Adjacent fields
// whose layout is identical on both sides collapse into one copy, so a
// projection that only drops trailing fields is a single memmove of the
// destination's fixed block.
//
// The reference semantics are the record path,
//
//	EncodeRecordBody(registry.Project(DecodeRecordBody(body), dst))
//
// and a Projection's output is byte-identical to it wherever that path
// succeeds (the conformance evolution axis and FuzzProjection hold it to
// that).  A pair the record path can never convert — a kind-family
// crossing such as float to string, a scalar against an array — fails
// compilation with an error naming the field.  Bodies are publisher-
// supplied, so every read is bounds-checked, including the variable parts
// of fields the destination drops: a body the record decoder rejects is
// rejected here too.
type Projection struct {
	src, dst *meta.Format
	steps    []projStep
}

// MaxProjectedFill bounds, per projected message, the bytes a projection
// zero-fills for dynamic arrays the source lacks (see registry.Project for
// the rule).  It equals the transport's default frame cap: a fill that no
// frame could carry is refused before it is allocated.
const MaxProjectedFill = 64 << 20

type projOp uint8

const (
	projCopy       projOp = iota // n bytes of the fixed block, layout-identical
	projConv                     // n fixed-block elements through conv
	projString                   // re-base one string
	projArray                    // any array with a dynamic side or record elements
	projFill                     // zero-fill a dynamic array the source lacks
	projDropString               // bounds-check a string the destination drops
)

// arrayDst says where a projArray step's elements land.
type arrayDst uint8

const (
	dstNone    arrayDst = iota // dropped: the source side is only bounds-checked
	dstStatic                  // in the destination's fixed block
	dstDynamic                 // appended to the variable section
)

// elemConv converts one numeric element: load ssz bytes, extend to 64
// bits, apply op, store the low dsz bytes.
type elemConv struct {
	op       convOp
	ssz, dsz int
	sext     bool // source is a signed integer: sign-extend
	copy     bool // bit-identical at equal size and byte order: memmove
}

type convOp uint8

const (
	convBits      convOp = iota // integer family: extend, truncate (or byte-swap)
	convBool                    // nonzero becomes 1
	convFloat                   // float resize through float64, as Record does
	convIntFloat                // float64(int64(v))
	convUintFloat               // float64(uint64(v))
	convUnsupported
)

type projStep struct {
	op   projOp
	name string // field name, for run-time errors

	so, do int // slot offsets relative to the record's base on each side
	n      int // projCopy: bytes; projConv: elements; projArray: static source count

	conv         elemConv // numeric elements
	recs         bool     // record elements: run sub on each instead
	sub          []projStep
	selem, delem int // element sizes

	srcDyn            bool
	sLenOff, sLenSize int // source count field (projArray when srcDyn, projFill)

	dst               arrayDst
	dn                int // static destination dimension
	dLenOff, dLenSize int // destination length field (dstDynamic, projFill)
}

// CompileProjection compiles the plan converting bodies of src into bodies
// of dst.  Both formats are validated, so a plan never indexes outside a
// fixed block it was compiled for.
func CompileProjection(src, dst *meta.Format) (*Projection, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	if err := dst.Validate(); err != nil {
		return nil, err
	}
	c := projCompiler{sameOrder: src.BigEndian == dst.BigEndian}
	steps, err := c.compile(nil, src, dst, 0, 0)
	if err != nil {
		return nil, err
	}
	return &Projection{src: src, dst: dst, steps: steps}, nil
}

type projCompiler struct {
	sameOrder bool
}

// compile appends the steps projecting one record level of src at offset so
// onto dst at offset do.  Nested scalar records are flattened into the same
// list; dst == nil compiles the bounds checks for a record the destination
// drops.  Steps are emitted in destination declaration order, which is the
// order the record encoder appends to the variable section.
func (c *projCompiler) compile(steps []projStep, src, dst *meta.Format, so, do int) ([]projStep, error) {
	used := make([]bool, len(src.Fields))
	var dstFields []meta.Field
	if dst != nil {
		dstFields = dst.Fields
	}
	for i := range dstFields {
		df := &dstFields[i]
		si := src.FieldByName(df.Name)
		if si < 0 {
			if df.IsDynamic() {
				var err error
				if steps, err = c.appendFill(steps, src, dst, df, so, do); err != nil {
					return nil, err
				}
			}
			continue // added in dst's version: stays zero
		}
		used[si] = true
		sf := &src.Fields[si]
		fail := func(format string, args ...any) ([]projStep, error) {
			return nil, fmt.Errorf("pbio: project %q field %q: %s", src.Name, df.Name, fmt.Sprintf(format, args...))
		}
		sArr, dArr := sf.IsDynamic() || sf.IsStaticArray(), df.IsDynamic() || df.IsStaticArray()
		mismatch := sArr != dArr || (sf.Kind == meta.Struct) != (df.Kind == meta.Struct) ||
			(sf.Kind == meta.String) != (df.Kind == meta.String)
		var conv elemConv
		if !mismatch && sf.Kind != meta.Struct && sf.Kind != meta.String {
			conv = c.elemConv(sf, df, sArr)
			mismatch = conv.op == convUnsupported
		}
		if mismatch {
			return fail("cannot project %s onto %s", fieldShape(sf), fieldShape(df))
		}
		if sf.IsStaticArray() && df.IsStaticArray() && sf.StaticDim > df.StaticDim {
			return fail("%d elements exceed static dimension %d", sf.StaticDim, df.StaticDim)
		}
		switch {
		case sf.Kind == meta.Struct:
			if !sArr {
				var err error
				if steps, err = c.compile(steps, sf.Sub, df.Sub, so+sf.Offset, do+df.Offset); err != nil {
					return nil, err
				}
				continue
			}
			st, err := c.arrayStep(src, dst, sf, df, so, do)
			if err != nil {
				return nil, err
			}
			if st.sub, err = c.compile(nil, sf.Sub, df.Sub, 0, 0); err != nil {
				return nil, err
			}
			steps = append(steps, st)
		case sf.Kind == meta.String:
			steps = append(steps, projStep{op: projString, name: df.Name, so: so + sf.Offset, do: do + df.Offset})
		default:
			if sf.IsDynamic() || df.IsDynamic() {
				st, err := c.arrayStep(src, dst, sf, df, so, do)
				if err != nil {
					return nil, err
				}
				st.conv = conv
				steps = append(steps, st)
				continue
			}
			n := 1
			if sArr {
				n = sf.StaticDim
			}
			steps = appendFixed(steps, df.Name, conv, so+sf.Offset, do+df.Offset, n)
		}
	}
	// Fields the destination lacks carry no bytes across, but the record
	// decoder walks their variable parts, so a corrupt one must still fail.
	for si := range src.Fields {
		if used[si] {
			continue
		}
		sf := &src.Fields[si]
		switch {
		case sf.Kind == meta.String:
			steps = append(steps, projStep{op: projDropString, name: sf.Name, so: so + sf.Offset})
		case sf.Kind == meta.Struct && !sf.IsDynamic() && !sf.IsStaticArray():
			var err error
			if steps, err = c.compile(steps, sf.Sub, nil, so+sf.Offset, 0); err != nil {
				return nil, err
			}
		case sf.IsDynamic() || sf.Kind == meta.Struct:
			st, err := c.arrayStep(src, nil, sf, nil, so, 0)
			if err != nil {
				return nil, err
			}
			if sf.Kind == meta.Struct {
				if st.sub, err = c.compile(nil, sf.Sub, nil, 0, 0); err != nil {
					return nil, err
				}
				if len(st.sub) == 0 && !sf.IsDynamic() {
					continue // static array of fixed-size records: nothing to check
				}
			}
			steps = append(steps, st)
		}
	}
	return steps, nil
}

// fieldShape describes a field for compile errors ("integer:4[3]").
func fieldShape(f *meta.Field) string {
	s := fmt.Sprintf("%s:%d", f.Kind, f.Size)
	switch {
	case f.IsDynamic():
		s += "[" + f.LengthField + "]"
	case f.IsStaticArray():
		s += fmt.Sprintf("[%d]", f.StaticDim)
	}
	return s
}

// appendFixed adds a fixed-block conversion of n elements, folding it into
// the previous step when both are plain copies of adjacent bytes.
func appendFixed(steps []projStep, name string, conv elemConv, so, do, n int) []projStep {
	if !conv.copy {
		return append(steps, projStep{op: projConv, name: name, so: so, do: do, n: n, conv: conv})
	}
	bytes := n * conv.ssz
	if k := len(steps) - 1; k >= 0 {
		if p := &steps[k]; p.op == projCopy && p.so+p.n == so && p.do+p.n == do {
			p.n += bytes
			return steps
		}
	}
	return append(steps, projStep{op: projCopy, name: name, so: so, do: do, n: bytes})
}

// elemConv picks the conversion for one numeric element, following what
// Record.Set accepts for scalars and registry.Project's array conversion
// accepts for arrays (the two differ: an integer scalar may become a
// boolean or, from a char, a float; an array may not).
func (c *projCompiler) elemConv(sf, df *meta.Field, array bool) elemConv {
	conv := elemConv{op: convUnsupported, ssz: sf.Size, dsz: df.Size, sext: sf.Kind == meta.Integer}
	srcInt := sf.Kind == meta.Integer || sf.Kind == meta.Unsigned || sf.Kind == meta.Enum || sf.Kind == meta.Char
	switch df.Kind {
	case meta.Integer, meta.Unsigned, meta.Enum, meta.Char:
		if srcInt {
			conv.op = convBits
		}
	case meta.Float:
		switch {
		case sf.Kind == meta.Float:
			conv.op = convFloat
			if sf.Size == 8 && df.Size == 8 {
				conv.op = convBits // bit-preserving; a 4-byte float is not (NaNs quieten)
			}
		case sf.Kind == meta.Integer:
			conv.op = convIntFloat
		case srcInt && !array:
			conv.op = convIntFloat // Set converts through int64, whatever the sign
		case srcInt && sf.Kind != meta.Char:
			conv.op = convUintFloat
		}
	case meta.Boolean:
		if sf.Kind == meta.Boolean || (srcInt && !array) {
			conv.op = convBool
		}
	}
	conv.copy = conv.op == convBits && conv.ssz == conv.dsz && (c.sameOrder || conv.ssz == 1)
	return conv
}

// arrayStep builds the projArray step for source field sf and destination
// field df (nil when the destination drops the field).
func (c *projCompiler) arrayStep(src, dst *meta.Format, sf, df *meta.Field, so, do int) (projStep, error) {
	st := projStep{op: projArray, name: sf.Name, so: so + sf.Offset, n: sf.StaticDim, selem: sf.Size}
	if sf.Kind == meta.Struct {
		st.recs, st.selem = true, sf.Sub.Size
	}
	if sf.IsDynamic() {
		lf, err := lengthField(src, sf)
		if err != nil {
			return st, err
		}
		if st.selem < 1 {
			return st, fmt.Errorf("pbio: project %q field %q: zero-size elements", src.Name, sf.Name)
		}
		st.srcDyn, st.sLenOff, st.sLenSize = true, so+lf.Offset, lf.Size
	}
	if df == nil {
		return st, nil
	}
	st.name, st.do, st.dn, st.delem = df.Name, do+df.Offset, df.StaticDim, df.Size
	if df.Kind == meta.Struct {
		st.delem = df.Sub.Size
	}
	st.dst = dstStatic
	if df.IsDynamic() {
		lf, err := lengthField(dst, df)
		if err != nil {
			return st, err
		}
		st.dst, st.dLenOff, st.dLenSize = dstDynamic, do+lf.Offset, lf.Size
	}
	return st, nil
}

func lengthField(f *meta.Format, fl *meta.Field) (*meta.Field, error) {
	j := f.FieldByName(fl.LengthField)
	if j < 0 {
		return nil, fmt.Errorf("pbio: %s.%s: length field %q does not exist (format not validated?)",
			f.Name, fl.Name, fl.LengthField)
	}
	return &f.Fields[j], nil
}

// appendFill adds the zero-fill for a destination dynamic array the source
// lacks: as many zero elements as the destination's length field will
// declare, which is whatever the source carries under that field's name.
// A source without the field leaves the count, and so the array, at zero.
func (c *projCompiler) appendFill(steps []projStep, src, dst *meta.Format, df *meta.Field, so, do int) ([]projStep, error) {
	dlf, err := lengthField(dst, df)
	if err != nil {
		return nil, err
	}
	si := src.FieldByName(df.LengthField)
	if si < 0 {
		return steps, nil
	}
	sf := &src.Fields[si]
	conv := c.elemConv(sf, dlf, false)
	if conv.op != convBits || sf.IsDynamic() || sf.IsStaticArray() {
		return nil, fmt.Errorf("pbio: project %q field %q: %s cannot size a dynamic array",
			src.Name, df.Name, fieldShape(sf))
	}
	st := projStep{
		op: projFill, name: df.Name, conv: conv,
		sLenOff: so + sf.Offset, sLenSize: sf.Size,
		do: do + df.Offset, dLenOff: do + dlf.Offset, dLenSize: dlf.Size,
		delem: df.Size,
	}
	if df.Kind == meta.Struct {
		st.delem = df.Sub.Size
	}
	return append(steps, st), nil
}

// Append projects body — a message body written under the source format —
// and appends the destination-format body to out.  It allocates only when
// out lacks capacity.
func (p *Projection) Append(out, body []byte) ([]byte, error) {
	if len(body) < p.src.Size {
		return nil, fmt.Errorf("pbio: body of %d bytes shorter than fixed block (%d) of format %q",
			len(body), p.src.Size, p.src.Name)
	}
	r := projRun{
		src:  decoder{body: body, big: p.src.BigEndian, ptr: p.src.PointerSize},
		dst:  encoder{buf: grow(out, p.dst.Size), base: len(out), big: p.dst.BigEndian, ptr: p.dst.PointerSize},
		fill: MaxProjectedFill,
	}
	if err := r.run(p.steps, 0, 0); err != nil {
		return nil, err
	}
	return r.dst.buf, nil
}

// projRun is one execution of a plan: the record decoder's bounds-checked
// view of the source body, the record encoder's growing destination body
// (so both sides accept and produce exactly what the record path does), and
// what is left of the zero-fill budget.
type projRun struct {
	src  decoder
	dst  encoder
	fill int
}

// load reads a fixed-block value of the source record.  The block is in
// bounds — the top level by Append's length check, array elements by
// arraySource's — so the decoder's error cannot occur.
func (r *projRun) load(off, size int) uint64 {
	v, _ := r.src.getUint(off, size)
	return v
}

// run executes steps for the record whose fixed block starts at sb in the
// source body and at db in the projected body.
func (r *projRun) run(steps []projStep, sb, db int) error {
	for i := range steps {
		st := &steps[i]
		var err error
		switch st.op {
		case projCopy:
			copy(r.dst.buf[r.dst.base+db+st.do:][:st.n], r.src.body[sb+st.so:])
		case projConv:
			r.convElems(&st.conv, sb+st.so, db+st.do, st.n)
		case projString:
			var s []byte
			if s, err = r.src.stringBytes(sb + st.so); err == nil && len(s) > 0 {
				off := r.dst.varOffset()
				r.dst.buf = grow(r.dst.buf, 4+len(s))
				r.dst.putUint(off, 4, uint64(len(s)))
				copy(r.dst.buf[r.dst.base+off+4:], s)
				r.dst.putUint(db+st.do, r.dst.ptr, uint64(off))
			}
		case projDropString:
			_, err = r.src.stringBytes(sb + st.so)
		case projArray:
			err = r.array(st, sb, db)
		case projFill:
			err = r.zeroFill(st, sb, db)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// convElems converts n numeric elements at so in the source body into the
// projected body at do.
func (r *projRun) convElems(c *elemConv, so, do, n int) {
	if c.copy {
		copy(r.dst.buf[r.dst.base+do:][:n*c.dsz], r.src.body[so:])
		return
	}
	shift := uint(64 - 8*c.ssz)
	for k := 0; k < n; k++ {
		v := r.load(so+k*c.ssz, c.ssz)
		if c.sext {
			v = uint64(int64(v<<shift) >> shift)
		}
		switch c.op {
		case convBool:
			if v != 0 {
				v = 1
			}
		case convFloat:
			v = floatBits(c.dsz, floatFromBits(c.ssz, v))
		case convIntFloat:
			v = floatBits(c.dsz, float64(int64(v)))
		case convUintFloat:
			v = floatBits(c.dsz, float64(v))
		}
		r.dst.putUint(do+k*c.dsz, c.dsz, v)
	}
}

// floatBits is the wire image of a canonical float value at the given size.
func floatBits(size int, x float64) uint64 {
	if size == 4 {
		return uint64(math.Float32bits(float32(x)))
	}
	return math.Float64bits(x)
}

// arraySource resolves where a projArray step's elements are and how many:
// the fixed block for a static source, the count field and pointer slot —
// checked as the record decoder checks them — for a dynamic one.
func (r *projRun) arraySource(st *projStep, sb int) (n, off int, err error) {
	if !st.srcDyn {
		return st.n, sb + st.so, nil
	}
	n = int(intFromBits(meta.Integer, st.sLenSize, r.load(sb+st.sLenOff, st.sLenSize)))
	if n < 0 {
		return 0, 0, fmt.Errorf("pbio: field %q: negative element count %d", st.name, n)
	}
	if n == 0 {
		return 0, 0, nil
	}
	off = int(r.load(sb+st.so, r.src.ptr))
	if off <= 0 || !r.src.arrayFits(off, n, st.selem) {
		return 0, 0, fmt.Errorf("pbio: field %q: %d elements of %d bytes at offset %d exceed body of %d bytes",
			st.name, n, st.selem, off, len(r.src.body))
	}
	return n, off, nil
}

// appendArray declares n elements in a dynamic destination array — count
// into the length field, and for n > 0 a zeroed block appended to the
// variable section with its offset in the pointer slot — and returns the
// block's offset.
func (r *projRun) appendArray(st *projStep, db, n int) int {
	r.dst.putUint(db+st.dLenOff, st.dLenSize, uint64(n))
	if n == 0 {
		return 0
	}
	off := r.dst.varOffset()
	r.dst.buf = grow(r.dst.buf, n*st.delem)
	r.dst.putUint(db+st.do, r.dst.ptr, uint64(off))
	return off
}

func (r *projRun) array(st *projStep, sb, db int) error {
	n, sOff, err := r.arraySource(st, sb)
	if err != nil {
		return err
	}
	dOff := db + st.do
	switch st.dst {
	case dstStatic:
		if n > st.dn {
			return fmt.Errorf("pbio: field %q: %d elements exceed static dimension %d", st.name, n, st.dn)
		}
	case dstDynamic:
		dOff = r.appendArray(st, db, n)
	}
	if !st.recs {
		if st.dst != dstNone {
			r.convElems(&st.conv, sOff, dOff, n)
		}
		return nil
	}
	if len(st.sub) == 0 {
		return nil
	}
	for k := 0; k < n; k++ {
		if err := r.run(st.sub, sOff+k*st.selem, dOff+k*st.delem); err != nil {
			return err
		}
	}
	return nil
}

func (r *projRun) zeroFill(st *projStep, sb, db int) error {
	count := int64(r.load(sb+st.sLenOff, st.sLenSize))
	if st.conv.sext {
		count = intFromBits(meta.Integer, st.sLenSize, uint64(count))
	}
	n, err := FillCount(count, st.delem, &r.fill)
	if err != nil {
		return fmt.Errorf("pbio: field %q: %w", st.name, err)
	}
	r.appendArray(st, db, n)
	return nil
}

// FillCount checks the element count a projection is about to zero-fill —
// count elements of elem bytes each — against what is left of the message's
// MaxProjectedFill budget, and charges it.  It is exported so that
// registry.Project, the reference a Projection is tested against, refuses
// exactly the counts a Projection refuses.
func FillCount(count int64, elem int, budget *int) (int, error) {
	if count < 0 {
		return 0, fmt.Errorf("negative element count %d", count)
	}
	if elem < 1 {
		elem = 1 // empty records still cost the reference path an allocation each
	}
	if count > int64(*budget/elem) {
		return 0, fmt.Errorf("zero-filling %d elements of %d bytes exceeds the %d-byte projection cap",
			count, elem, MaxProjectedFill)
	}
	*budget -= int(count) * elem
	return int(count), nil
}
