package pbio

import (
	"fmt"
	"reflect"
	"strings"

	"github.com/open-metadata/xmit/internal/meta"
)

// Binding associates a wire format with a concrete Go type, holding the
// precompiled encode program.  Bindings are created once (Context.Bind) and
// reused for every message; this is PBIO's "binding token".
type Binding struct {
	ctx    *Context
	format *meta.Format
	id     meta.FormatID
	prog   *encProg
}

// Format returns the bound wire format.
func (b *Binding) Format() *meta.Format { return b.format }

// ID returns the bound format's identifier.
func (b *Binding) ID() meta.FormatID { return b.id }

// encProg is a compiled encoder for one (format, Go struct type) pair.
type encProg struct {
	format *meta.Format
	goType reflect.Type
	big    bool
	ptr    int
	hasVar bool // any string/dynamic content (possibly nested)
	ops    []encOp
}

// encOp encodes one format field from one Go struct field.
type encOp struct {
	name      string
	kind      meta.Kind
	off       int // slot offset within the fixed block
	size      int // element wire size
	staticDim int
	goField   int // Go struct field index, -1 for synthesized length fields
	isDyn     bool
	block     bool // array whose elements are one block move (blockMove)
	lenOff    int  // dynamic: offset of the length field's slot
	lenSize   int  // dynamic: wire size of the length field
	firstDyn  bool // dynamic: first array using this length field
	lenPeer   int  // dynamic, !firstDyn: op index of the first array sharing the length field
	sub       *encProg
}

// Bind compiles an encode program binding the given format to the Go type
// of sample (a struct or pointer to struct).  Bindings are cached per
// (format, type) pair.
func (c *Context) Bind(f *meta.Format, sample any) (*Binding, error) {
	if f == nil {
		return nil, fmt.Errorf("pbio: Bind: nil format")
	}
	t := reflect.TypeOf(sample)
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t == nil || t.Kind() != reflect.Struct {
		return nil, fmt.Errorf("pbio: Bind: sample must be a struct or pointer to struct, got %T", sample)
	}
	id := f.ID()
	key := bindKey{id: id, t: t}
	if b := (*c.bindings.Load())[key]; b != nil {
		return b, nil
	}
	prog, err := compileEncoder(f, t)
	if err != nil {
		return nil, err
	}
	b := &Binding{ctx: c, format: f, id: id, prog: prog}
	c.mu.Lock()
	if prev := (*c.bindings.Load())[key]; prev != nil {
		b = prev // another goroutine won the compile race
	} else {
		cowInsert(&c.bindings, key, b)
	}
	c.mu.Unlock()
	return b, nil
}

// structFieldByName finds the exported Go field matching a metadata field
// name, honouring `xmit:"name"` tags first and falling back to a
// case-insensitive name match.
func structFieldByName(t reflect.Type, name string) int {
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if tag, ok := sf.Tag.Lookup("xmit"); ok {
			tagName, _, _ := strings.Cut(tag, ",")
			if tagName == name {
				return i
			}
			if tagName == "-" || tagName != "" {
				continue
			}
		}
		if sf.IsExported() && strings.EqualFold(sf.Name, name) {
			return i
		}
	}
	return -1
}

// lengthFieldIndexes returns the set of field indexes used as dynamic array
// length fields.
func lengthFieldIndexes(f *meta.Format) map[int]bool {
	set := make(map[int]bool)
	for i := range f.Fields {
		if lf := f.Fields[i].LengthField; lf != "" {
			if j := f.FieldByName(lf); j >= 0 {
				set[j] = true
			}
		}
	}
	return set
}

func compileEncoder(f *meta.Format, t reflect.Type) (*encProg, error) {
	p := &encProg{format: f, goType: t, big: f.BigEndian, ptr: f.PointerSize}
	lenFields := lengthFieldIndexes(f)
	firstLen := make(map[string]int) // lower length-field name -> op index of first user
	for i := range f.Fields {
		fl := &f.Fields[i]
		op := encOp{
			name:      fl.Name,
			kind:      fl.Kind,
			off:       fl.Offset,
			size:      fl.Size,
			staticDim: fl.StaticDim,
			isDyn:     fl.IsDynamic(),
			lenPeer:   -1,
		}
		gi := structFieldByName(t, fl.Name)
		if gi < 0 {
			if lenFields[i] {
				// Length fields may be absent from the Go struct;
				// their value is synthesized from the slice length.
				op.goField = -1
				p.ops = append(p.ops, op)
				continue
			}
			return nil, fmt.Errorf("pbio: %s: Go type %s has no field matching %q",
				f.Name, t, fl.Name)
		}
		op.goField = gi
		ft := t.Field(gi).Type
		if op.isDyn {
			j := f.FieldByName(fl.LengthField)
			if j < 0 {
				return nil, fmt.Errorf("pbio: %s.%s: length field %q does not exist (format not validated?)",
					f.Name, fl.Name, fl.LengthField)
			}
			lf := &f.Fields[j]
			op.lenOff, op.lenSize = lf.Offset, lf.Size
			lower := strings.ToLower(fl.LengthField)
			if first, ok := firstLen[lower]; ok {
				op.lenPeer = first
			} else {
				op.firstDyn = true
				firstLen[lower] = len(p.ops)
			}
			if ft.Kind() != reflect.Slice {
				return nil, fmt.Errorf("pbio: %s.%s: dynamic array needs a Go slice, have %s",
					f.Name, fl.Name, ft)
			}
			ft = ft.Elem()
		} else if op.staticDim > 0 {
			switch ft.Kind() {
			case reflect.Array:
				if ft.Len() != op.staticDim {
					return nil, fmt.Errorf("pbio: %s.%s: Go array length %d != static dimension %d",
						f.Name, fl.Name, ft.Len(), op.staticDim)
				}
			case reflect.Slice:
				// Length is checked at encode time.
			default:
				return nil, fmt.Errorf("pbio: %s.%s: static array needs a Go array or slice, have %s",
					f.Name, fl.Name, ft)
			}
			ft = ft.Elem()
		}
		if err := checkElemType(f.Name, fl, ft); err != nil {
			return nil, err
		}
		op.block = blockMove(fl, ft)
		if fl.Kind == meta.Struct {
			sub, err := compileEncoder(fl.Sub, ft)
			if err != nil {
				return nil, err
			}
			op.sub = sub
			if sub.hasVar {
				p.hasVar = true
			}
		}
		if op.kind == meta.String || op.isDyn {
			p.hasVar = true
		}
		p.ops = append(p.ops, op)
	}
	return p, nil
}

// checkElemType verifies that a Go element type can supply values for a
// metadata field kind.
func checkElemType(formatName string, fl *meta.Field, ft reflect.Type) error {
	ok := false
	switch fl.Kind {
	case meta.Integer, meta.Unsigned, meta.Enum, meta.Char:
		switch ft.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			ok = true
		}
	case meta.Boolean:
		switch ft.Kind() {
		case reflect.Bool,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			ok = true
		}
	case meta.Float:
		switch ft.Kind() {
		case reflect.Float32, reflect.Float64:
			ok = true
		}
	case meta.String:
		ok = ft.Kind() == reflect.String
	case meta.Struct:
		ok = ft.Kind() == reflect.Struct
	}
	if !ok {
		return fmt.Errorf("pbio: %s.%s: Go type %s cannot encode a %s field",
			formatName, fl.Name, ft, fl.Kind)
	}
	return nil
}
