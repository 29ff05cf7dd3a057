package registry

import (
	"fmt"

	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/pbio"
)

// Project maps a decoded record onto another version's view of the same
// lineage: fields the destination format lacks are dropped, fields the
// source record lacks stay unset (the codec zero-fills them on encode),
// and shared fields are converted to the destination's canonical type.
// Nested records are rebuilt recursively against the destination's
// sub-formats.  This is the run-time half of view negotiation: the broker
// projects head events down to a subscriber's pinned version (and, after a
// resume, old retained events up to it).
//
// A destination dynamic array the source lacks is the one added field that
// cannot simply stay unset: its length field may well exist in the source
// (a version that adds a second array sized by a count the format already
// carried, or a view that keeps an array the head dropped), and a copied
// count of n over an absent array is a frame no decoder accepts.  Such an
// array is zero-filled to the count its length field holds in the
// projected record — n zero elements, or n zero sub-records — so every
// array sharing the length field agrees with it; a length field the source
// lacks too means count zero.  The zero-fill is bounded per call by
// pbio.MaxProjectedFill.
//
// Conversion follows the canonical-value rules, so a lineage whose policy
// admits the step never fails here; under PolicyNone a projection across a
// kind-family crossing (float to string, say) returns an error naming the
// field.
//
// Project is the reference implementation: the broker's data path runs
// compiled pbio.Projection plans, which are tested byte for byte against
// EncodeRecordBody(Project(DecodeRecordBody(body), dst)).
func Project(rec *pbio.Record, dst *meta.Format) (*pbio.Record, error) {
	fill := pbio.MaxProjectedFill
	return project(rec, dst, &fill)
}

func project(rec *pbio.Record, dst *meta.Format, fill *int) (*pbio.Record, error) {
	if rec.Format().ID() == dst.ID() {
		return rec, nil
	}
	out := pbio.NewRecord(dst)
	src := rec.Format()
	for i := range dst.Fields {
		df := &dst.Fields[i]
		si := src.FieldByName(df.Name)
		var pv any
		if si < 0 {
			if !df.IsDynamic() {
				continue // added in dst's version: zero-filled
			}
			zeros, err := zeroArray(out, df, fill)
			if err != nil {
				return nil, fmt.Errorf("registry: project %q field %q: %w", src.Name, df.Name, err)
			}
			if zeros == nil {
				continue
			}
			pv = zeros
		} else {
			v, ok := rec.Get(df.Name)
			if !ok {
				continue
			}
			var err error
			if pv, err = projectValue(v, &src.Fields[si], df, fill); err != nil {
				return nil, fmt.Errorf("registry: project %q field %q: %w", src.Name, df.Name, err)
			}
		}
		if err := out.Set(df.Name, pv); err != nil {
			return nil, fmt.Errorf("registry: project %q: %w", src.Name, err)
		}
	}
	return out, nil
}

// zeroArray builds the zero-filled value of a destination dynamic array the
// source lacks, sized by the already-projected length field (nil when that
// is unset or zero: the array stays unset and encodes as empty).
func zeroArray(out *pbio.Record, df *meta.Field, fill *int) (any, error) {
	v, _ := out.Get(df.LengthField)
	var count int64
	switch x := v.(type) {
	case int64:
		count = x
	case uint64:
		count = int64(x) // past MaxInt64 goes negative and is refused below
	}
	elem := df.Size
	if df.Kind == meta.Struct {
		elem = df.Sub.Size
	}
	n, err := pbio.FillCount(count, elem, fill)
	if err != nil || n == 0 {
		return nil, err
	}
	return pbio.ZeroArray(df, n), nil
}

// projectValue converts one canonical value from the source field's type
// to something Set on the destination field accepts.
func projectValue(v any, sf, df *meta.Field, fill *int) (any, error) {
	if df.Kind == meta.Struct {
		switch x := v.(type) {
		case *pbio.Record:
			return project(x, df.Sub, fill)
		case []*pbio.Record:
			out := make([]*pbio.Record, len(x))
			for i, r := range x {
				pr, err := project(r, df.Sub, fill)
				if err != nil {
					return nil, err
				}
				out[i] = pr
			}
			return out, nil
		}
		return nil, fmt.Errorf("cannot project %T into a struct field", v)
	}
	if !sf.IsDynamic() && !sf.IsStaticArray() {
		return v, nil // scalar: Set's normalisation converts across kinds
	}
	return convertArray(v, df.Kind)
}

// convertArray maps a canonical slice onto the destination kind's
// canonical element type.  Set's array normalisation is deliberately
// strict (it never copies on the hot path), so cross-kind version steps —
// an int array widened to int64, an enum array to unsigned — convert here.
func convertArray(v any, kind meta.Kind) (any, error) {
	switch kind {
	case meta.Integer:
		switch s := v.(type) {
		case []int64:
			return s, nil
		case []uint64:
			out := make([]int64, len(s))
			for i, x := range s {
				out[i] = int64(x)
			}
			return out, nil
		case []byte:
			out := make([]int64, len(s))
			for i, x := range s {
				out[i] = int64(x)
			}
			return out, nil
		}
	case meta.Unsigned, meta.Enum:
		switch s := v.(type) {
		case []uint64:
			return s, nil
		case []int64:
			out := make([]uint64, len(s))
			for i, x := range s {
				out[i] = uint64(x)
			}
			return out, nil
		case []byte:
			out := make([]uint64, len(s))
			for i, x := range s {
				out[i] = uint64(x)
			}
			return out, nil
		}
	case meta.Float:
		switch s := v.(type) {
		case []float64:
			return s, nil
		case []int64:
			out := make([]float64, len(s))
			for i, x := range s {
				out[i] = float64(x)
			}
			return out, nil
		case []uint64:
			out := make([]float64, len(s))
			for i, x := range s {
				out[i] = float64(x)
			}
			return out, nil
		}
	case meta.Char:
		switch s := v.(type) {
		case []byte:
			return s, nil
		case []int64:
			out := make([]byte, len(s))
			for i, x := range s {
				out[i] = byte(x)
			}
			return out, nil
		case []uint64:
			out := make([]byte, len(s))
			for i, x := range s {
				out[i] = byte(x)
			}
			return out, nil
		}
	case meta.Boolean:
		if s, ok := v.([]bool); ok {
			return s, nil
		}
	case meta.String:
		if s, ok := v.(string); ok {
			return s, nil
		}
	}
	return nil, fmt.Errorf("cannot project %T into a %s array", v, kind)
}
