package meta

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"unsafe"
)

// FormatID is a stable 64-bit identifier derived from the canonical
// serialisation of a format.  Two formats have the same ID exactly when
// their canonical serialisations are byte-identical, so an ID names both
// the logical record structure and its concrete wire layout.  Data messages
// carry only the ID; receivers obtain the metadata once, in-band or from a
// format server.
type FormatID uint64

// String renders the ID as fixed-width hex.
func (id FormatID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

const (
	canonVersion   = 1
	canonMagic     = "XMF1"
	flagBigEndian  = 1 << 0
	maxCanonFields = 1 << 16
)

// Canonical returns the canonical binary serialisation of the format.  The
// encoding is self-contained (nested formats are embedded) and versioned;
// it is the unit of metadata exchange between processes.
func (f *Format) Canonical() []byte {
	buf := make([]byte, 0, 64+32*len(f.Fields))
	buf = append(buf, canonMagic...)
	buf = append(buf, canonVersion)
	buf = f.appendCanonical(buf)
	return buf
}

func (f *Format) appendCanonical(buf []byte) []byte {
	buf = appendString(buf, f.Name)
	buf = appendString(buf, f.Platform)
	var flags byte
	if f.BigEndian {
		flags |= flagBigEndian
	}
	buf = append(buf, flags, byte(f.PointerSize))
	buf = appendU32(buf, uint32(f.Size))
	buf = appendU32(buf, uint32(f.Align))
	buf = appendU32(buf, uint32(len(f.Fields)))
	for i := range f.Fields {
		fl := &f.Fields[i]
		buf = appendString(buf, fl.Name)
		buf = append(buf, byte(fl.Kind))
		buf = appendU32(buf, uint32(fl.Size))
		buf = appendU32(buf, uint32(fl.Offset))
		buf = appendU32(buf, uint32(fl.StaticDim))
		buf = appendString(buf, fl.LengthField)
		if fl.Sub != nil {
			buf = append(buf, 1)
			buf = fl.Sub.appendCanonical(buf)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// ID returns the format's content-derived identifier (FNV-1a over the
// canonical serialisation).  The first call computes it and memoises it on
// the format, so every later call — one per message header, one per
// pinned-format check — is a load and a compare; this is why a Format must
// not change once its ID has been taken.
func (f *Format) ID() FormatID {
	if m := (*idMemo)(atomic.LoadPointer(&f.id)); m != nil && m.of == f {
		return m.id
	}
	h := fnv.New64a()
	h.Write(f.Canonical())
	id := FormatID(h.Sum64())
	atomic.StorePointer(&f.id, unsafe.Pointer(&idMemo{of: f, id: id}))
	return id
}

// idMemo is a computed ID and the format it belongs to.  A by-value copy of
// a Format carries the original's memo, whose owner is not the copy, so the
// copy computes (and memoises) its own ID: copying a format and changing
// the copy is how callers derive a new format from an old one.
type idMemo struct {
	of *Format
	id FormatID
}

// ParseCanonical reconstructs a Format from its canonical serialisation.
// The returned format is validated before being returned.
func ParseCanonical(data []byte) (*Format, error) {
	if len(data) < len(canonMagic)+1 {
		return nil, fmt.Errorf("meta: canonical data too short (%d bytes)", len(data))
	}
	if string(data[:len(canonMagic)]) != canonMagic {
		return nil, fmt.Errorf("meta: bad canonical magic %q", data[:len(canonMagic)])
	}
	if data[len(canonMagic)] != canonVersion {
		return nil, fmt.Errorf("meta: unsupported canonical version %d", data[len(canonMagic)])
	}
	d := &canonReader{data: data, pos: len(canonMagic) + 1}
	f, err := d.readFormat(0)
	if err != nil {
		return nil, err
	}
	if d.pos != len(data) {
		return nil, fmt.Errorf("meta: %d trailing bytes after canonical format", len(data)-d.pos)
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("meta: parsed canonical format invalid: %w", err)
	}
	return f, nil
}

type canonReader struct {
	data []byte
	pos  int
}

const maxNesting = 32

func (d *canonReader) readFormat(depth int) (*Format, error) {
	if depth > maxNesting {
		return nil, fmt.Errorf("meta: canonical format nested deeper than %d", maxNesting)
	}
	var f Format
	var err error
	if f.Name, err = d.readString(); err != nil {
		return nil, err
	}
	if f.Platform, err = d.readString(); err != nil {
		return nil, err
	}
	hdr, err := d.readBytes(2)
	if err != nil {
		return nil, err
	}
	f.BigEndian = hdr[0]&flagBigEndian != 0
	f.PointerSize = int(hdr[1])
	if f.Size, err = d.readU32(); err != nil {
		return nil, err
	}
	if f.Align, err = d.readU32(); err != nil {
		return nil, err
	}
	n, err := d.readU32()
	if err != nil {
		return nil, err
	}
	if n > maxCanonFields {
		return nil, fmt.Errorf("meta: canonical format declares %d fields", n)
	}
	f.Fields = make([]Field, n)
	for i := 0; i < n; i++ {
		fl := &f.Fields[i]
		if fl.Name, err = d.readString(); err != nil {
			return nil, err
		}
		kb, err := d.readBytes(1)
		if err != nil {
			return nil, err
		}
		fl.Kind = Kind(kb[0])
		if fl.Size, err = d.readU32(); err != nil {
			return nil, err
		}
		if fl.Offset, err = d.readU32(); err != nil {
			return nil, err
		}
		if fl.StaticDim, err = d.readU32(); err != nil {
			return nil, err
		}
		if fl.LengthField, err = d.readString(); err != nil {
			return nil, err
		}
		hasSub, err := d.readBytes(1)
		if err != nil {
			return nil, err
		}
		if hasSub[0] == 1 {
			if fl.Sub, err = d.readFormat(depth + 1); err != nil {
				return nil, err
			}
		} else if hasSub[0] != 0 {
			return nil, fmt.Errorf("meta: bad subformat marker %d", hasSub[0])
		}
	}
	return &f, nil
}

func (d *canonReader) readBytes(n int) ([]byte, error) {
	if d.pos+n > len(d.data) {
		return nil, fmt.Errorf("meta: canonical data truncated at byte %d", d.pos)
	}
	b := d.data[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

func (d *canonReader) readU32() (int, error) {
	b, err := d.readBytes(4)
	if err != nil {
		return 0, err
	}
	return int(binary.BigEndian.Uint32(b)), nil
}

func (d *canonReader) readString() (string, error) {
	b, err := d.readBytes(2)
	if err != nil {
		return "", err
	}
	n := int(binary.BigEndian.Uint16(b))
	s, err := d.readBytes(n)
	if err != nil {
		return "", err
	}
	return string(s), nil
}

func appendU32(buf []byte, v uint32) []byte {
	return append(buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendString(buf []byte, s string) []byte {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	buf = append(buf, byte(len(s)>>8), byte(len(s)))
	return append(buf, s...)
}
