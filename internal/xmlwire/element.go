package xmlwire

import (
	"fmt"
	"reflect"
	"strings"

	"github.com/open-metadata/xmit/internal/dom"
	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/refbind"
)

// DecodeElement decodes a message from an already parsed DOM subtree whose
// root is the message element.  This is the path used when an XML message
// is embedded inside an envelope (see internal/rpcxml): the envelope is
// parsed once and the payload subtree is decoded in place, with no
// re-serialisation.
func (c *Codec) DecodeElement(el *dom.Element, out any) error {
	rv := reflect.ValueOf(out)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("xmlwire: decode target must be a non-nil pointer, got %T", out)
	}
	rv = rv.Elem()
	if rv.Type() != c.goType {
		return fmt.Errorf("xmlwire: decode: target type %s does not match bound type %s", rv.Type(), c.goType)
	}
	return decodeElemStruct(el, c.bounds, rv)
}

func decodeElemStruct(el *dom.Element, bounds []refbind.Bound, v reflect.Value) error {
	byName := make(map[string]*refbind.Bound, len(bounds))
	for i := range bounds {
		byName[strings.ToLower(bounds[i].Field.Name)] = &bounds[i]
	}
	counts := map[string]int{}
	for _, child := range el.Children {
		b, ok := byName[strings.ToLower(child.Local)]
		if !ok || b.GoIndex < 0 {
			continue // unknown elements are skipped, as in stream decode
		}
		if err := decodeElemField(child, b, v, counts); err != nil {
			return err
		}
	}
	return nil
}

func decodeElemField(child *dom.Element, b *refbind.Bound, v reflect.Value, counts map[string]int) error {
	fl := b.Field
	fv := v.Field(b.GoIndex)
	var target reflect.Value
	if fl.IsDynamic() || fl.IsStaticArray() {
		k := counts[fl.Name]
		counts[fl.Name] = k + 1
		switch fv.Kind() {
		case reflect.Slice:
			if k >= fv.Len() {
				fv.Set(reflect.Append(fv, reflect.Zero(fv.Type().Elem())))
			}
			target = fv.Index(k)
		default:
			if k >= fv.Len() {
				return fmt.Errorf("xmlwire: field %q: more than %d elements", fl.Name, fv.Len())
			}
			target = fv.Index(k)
		}
	} else {
		target = fv
	}
	switch fl.Kind {
	case meta.Struct:
		return decodeElemStruct(child, b.Sub, target)
	case meta.String:
		// The text is a substring of the whole parsed envelope.
		return setFromText(fl, target, strings.Clone(child.Text))
	}
	return setFromText(fl, target, child.Text)
}
