package xmlwire

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/open-metadata/xmit/internal/dom"
	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/pbio"
)

// EncodeRecord appends the XML text encoding of a dynamic record to dst.
// It needs no compiled Go type, so any format — including ones discovered
// at run time — can be rendered as text (used by pbfdump -xml and the
// record path of the RPC layer).
func EncodeRecord(dst []byte, r *pbio.Record) ([]byte, error) {
	return appendRecord(dst, r.Format().Name, r)
}

func appendRecord(dst []byte, tag string, r *pbio.Record) ([]byte, error) {
	f := r.Format()
	dst = append(dst, '<')
	dst = append(dst, tag...)
	dst = append(dst, '>')
	// Length fields are authoritative from their arrays, matching every
	// other encoder in the repository.
	lengths := map[string]int64{}
	for i := range f.Fields {
		fl := &f.Fields[i]
		if !fl.IsDynamic() {
			continue
		}
		n := int64(0)
		if v, ok := r.Get(fl.Name); ok {
			n = recordLen(v)
		}
		lengths[strings.ToLower(fl.LengthField)] = n
	}
	var err error
	for i := range f.Fields {
		fl := &f.Fields[i]
		if n, isLen := lengths[strings.ToLower(fl.Name)]; isLen {
			dst = append(dst, '<')
			dst = append(dst, fl.Name...)
			dst = append(dst, '>')
			dst = strconv.AppendInt(dst, n, 10)
			dst = append(dst, '<', '/')
			dst = append(dst, fl.Name...)
			dst = append(dst, '>')
			continue
		}
		v, ok := r.Get(fl.Name)
		if !ok {
			continue
		}
		if dst, err = appendRecordField(dst, fl, v); err != nil {
			return nil, err
		}
	}
	dst = append(dst, '<', '/')
	dst = append(dst, tag...)
	dst = append(dst, '>')
	return dst, nil
}

func recordLen(v any) int64 {
	switch s := v.(type) {
	case []int64:
		return int64(len(s))
	case []uint64:
		return int64(len(s))
	case []float64:
		return int64(len(s))
	case []byte:
		return int64(len(s))
	case []bool:
		return int64(len(s))
	case []*pbio.Record:
		return int64(len(s))
	}
	return 0
}

func appendRecordField(dst []byte, fl *meta.Field, v any) ([]byte, error) {
	one := func(dst []byte, x any) ([]byte, error) {
		dst = append(dst, '<')
		dst = append(dst, fl.Name...)
		dst = append(dst, '>')
		switch val := x.(type) {
		case int64:
			dst = strconv.AppendInt(dst, val, 10)
		case uint64:
			dst = strconv.AppendUint(dst, val, 10)
		case float64:
			bits := 64
			if fl.Size == 4 {
				bits = 32
			}
			dst = strconv.AppendFloat(dst, val, 'g', -1, bits)
		case byte:
			dst = strconv.AppendUint(dst, uint64(val), 10)
		case bool:
			if val {
				dst = append(dst, "true"...)
			} else {
				dst = append(dst, "false"...)
			}
		case string:
			dst = appendEscaped(dst, val)
		default:
			return nil, fmt.Errorf("xmlwire: field %q: unsupported record value %T", fl.Name, x)
		}
		dst = append(dst, '<', '/')
		dst = append(dst, fl.Name...)
		dst = append(dst, '>')
		return dst, nil
	}
	var err error
	switch s := v.(type) {
	case *pbio.Record:
		return appendRecord(dst, fl.Name, s)
	case []*pbio.Record:
		for _, rec := range s {
			if dst, err = appendRecord(dst, fl.Name, rec); err != nil {
				return nil, err
			}
		}
	case []int64:
		for _, x := range s {
			if dst, err = one(dst, x); err != nil {
				return nil, err
			}
		}
	case []uint64:
		for _, x := range s {
			if dst, err = one(dst, x); err != nil {
				return nil, err
			}
		}
	case []float64:
		for _, x := range s {
			if dst, err = one(dst, x); err != nil {
				return nil, err
			}
		}
	case []byte:
		for _, x := range s {
			if dst, err = one(dst, x); err != nil {
				return nil, err
			}
		}
	case []bool:
		for _, x := range s {
			if dst, err = one(dst, x); err != nil {
				return nil, err
			}
		}
	default:
		return one(dst, v)
	}
	return dst, nil
}

// DecodeRecord parses an XML message into a dynamic record of the given
// format, again with no compiled Go type involved.
func DecodeRecord(f *meta.Format, data []byte) (*pbio.Record, error) {
	doc, err := dom.ParseBytes(data)
	if err != nil {
		return nil, fmt.Errorf("xmlwire: %w", err)
	}
	return DecodeRecordElement(f, doc.Root)
}

// DecodeRecordElement builds a record from an already parsed subtree.
func DecodeRecordElement(f *meta.Format, el *dom.Element) (*pbio.Record, error) {
	r := pbio.NewRecord(f)
	// Accumulate array elements before setting, in document order.
	arrays := map[string][]any{}
	for _, child := range el.Children {
		i := f.FieldByName(child.Local)
		if i < 0 {
			continue // unknown elements are skipped
		}
		fl := &f.Fields[i]
		v, err := recordValueOf(fl, child)
		if err != nil {
			return nil, err
		}
		if fl.IsDynamic() || fl.IsStaticArray() {
			arrays[strings.ToLower(fl.Name)] = append(arrays[strings.ToLower(fl.Name)], v)
			continue
		}
		if err := r.Set(fl.Name, v); err != nil {
			return nil, err
		}
	}
	for name, vals := range arrays {
		i := f.FieldByName(name)
		fl := &f.Fields[i]
		typed, err := typedArray(fl, vals)
		if err != nil {
			return nil, err
		}
		if err := r.Set(fl.Name, typed); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func recordValueOf(fl *meta.Field, el *dom.Element) (any, error) {
	switch fl.Kind {
	case meta.Struct:
		return DecodeRecordElement(fl.Sub, el)
	case meta.String:
		// The text is a substring of the whole parsed message.
		return strings.Clone(el.Text), nil
	case meta.Float:
		x, err := strconv.ParseFloat(strings.TrimSpace(el.Text), 64)
		if err != nil {
			return nil, fmt.Errorf("xmlwire: field %q: %w", fl.Name, err)
		}
		return x, nil
	case meta.Boolean:
		t := strings.TrimSpace(el.Text)
		return t == "true" || t == "1", nil
	case meta.Unsigned, meta.Enum:
		x, err := strconv.ParseUint(strings.TrimSpace(el.Text), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("xmlwire: field %q: %w", fl.Name, err)
		}
		return x, nil
	case meta.Char:
		x, err := strconv.ParseUint(strings.TrimSpace(el.Text), 10, 8)
		if err != nil {
			return nil, fmt.Errorf("xmlwire: field %q: %w", fl.Name, err)
		}
		return byte(x), nil
	default: // Integer
		x, err := strconv.ParseInt(strings.TrimSpace(el.Text), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("xmlwire: field %q: %w", fl.Name, err)
		}
		return x, nil
	}
}

func typedArray(fl *meta.Field, vals []any) (any, error) {
	switch fl.Kind {
	case meta.Integer:
		out := make([]int64, len(vals))
		for i, v := range vals {
			out[i] = v.(int64)
		}
		return out, nil
	case meta.Unsigned, meta.Enum:
		out := make([]uint64, len(vals))
		for i, v := range vals {
			out[i] = v.(uint64)
		}
		return out, nil
	case meta.Float:
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i] = v.(float64)
		}
		return out, nil
	case meta.Char:
		out := make([]byte, len(vals))
		for i, v := range vals {
			out[i] = v.(byte)
		}
		return out, nil
	case meta.Boolean:
		out := make([]bool, len(vals))
		for i, v := range vals {
			out[i] = v.(bool)
		}
		return out, nil
	case meta.Struct:
		out := make([]*pbio.Record, len(vals))
		for i, v := range vals {
			out[i] = v.(*pbio.Record)
		}
		return out, nil
	}
	return nil, fmt.Errorf("xmlwire: field %q: unsupported array kind %s", fl.Name, fl.Kind)
}
