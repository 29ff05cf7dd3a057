package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"github.com/open-metadata/xmit/internal/meta"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
)

// Sample is the small event: with 17 floats its x86_64 body is exactly the
// 100 bytes of the paper's Figure 8 record (32-byte fixed block + 68).
type Sample struct {
	Seq    int64
	Sum    uint64
	Count  int32
	Values []float32
}

// Block is the large event: 12 500 doubles, 100 KB of array data.
type Block struct {
	Seq    int64
	Sum    uint64
	Count  int32
	Values []float64
}

// Metric is version 1 of the evolving lineage; later versions add fields a
// v1 reader does not know.
type Metric struct {
	Seq   uint64
	Sum   uint64
	Value float64
	Pad   []int32
}

const (
	smallValues  = 17
	largeValues  = 12500
	metricPad    = 10
	payloadKinds = 8 // distinct pre-generated value arrays a publisher cycles through
)

// seqMix spreads a sequence number over 64 bits, so a payload delivered
// under the wrong seq fails its checksum.
func seqMix(seq uint64) uint64 { return seq * 0x9E3779B97F4A7C15 }

// sum32/sum64 are position-weighted sums of the values' bit patterns.  The
// weights are independent multiplies, so the loop costs about one cycle per
// element and stays small next to encoding the same array.
func sum32(vs []float32) uint64 {
	var h uint64
	for i, v := range vs {
		h += uint64(math.Float32bits(v)) * uint64(2*i+1)
	}
	return h
}

func sum64(vs []float64) uint64 {
	var h uint64
	for i, v := range vs {
		h += math.Float64bits(v) * uint64(2*i+1)
	}
	return h
}

func sumPad(vs []int32) uint64 {
	var h uint64
	for i, v := range vs {
		h += uint64(uint32(v)) * uint64(2*i+1)
	}
	return h
}

// payloads holds the seed-generated event contents.
type payloads struct {
	f32  [payloadKinds][]float32
	f64  [payloadKinds][]float64
	pad  [payloadKinds][]int32
	b32  [payloadKinds]uint64 // sum32 of f32[k]
	b64  [payloadKinds]uint64
	bpad [payloadKinds]uint64
}

func newPayloads(rng *rand.Rand) *payloads {
	p := &payloads{}
	for k := 0; k < payloadKinds; k++ {
		p.f32[k] = make([]float32, smallValues)
		for i := range p.f32[k] {
			p.f32[k][i] = rng.Float32()*200 - 100
		}
		p.f64[k] = make([]float64, largeValues)
		for i := range p.f64[k] {
			p.f64[k][i] = rng.NormFloat64() * 1e3
		}
		p.pad[k] = make([]int32, metricPad)
		for i := range p.pad[k] {
			p.pad[k][i] = rng.Int31() - 1<<30
		}
		p.b32[k], p.b64[k], p.bpad[k] = sum32(p.f32[k]), sum64(p.f64[k]), sumPad(p.pad[k])
	}
	return p
}

func (p *payloads) fillSample(s *Sample, seq uint64) {
	k := seq % payloadKinds
	s.Seq, s.Count, s.Values = int64(seq), smallValues, p.f32[k]
	s.Sum = p.b32[k] ^ seqMix(seq)
}

func (p *payloads) fillBlock(b *Block, seq uint64) {
	k := seq % payloadKinds
	b.Seq, b.Count, b.Values = int64(seq), largeValues, p.f64[k]
	b.Sum = p.b64[k] ^ seqMix(seq)
}

// metricValue is the deterministic double carried by metric event seq.
func metricValue(seq uint64) float64 { return float64(seq%1000) * 0.25 }

func (s *Sample) valid() bool {
	return int(s.Count) == len(s.Values) && s.Sum == sum32(s.Values)^seqMix(uint64(s.Seq))
}

func (b *Block) valid() bool {
	return int(b.Count) == len(b.Values) && b.Sum == sum64(b.Values)^seqMix(uint64(b.Seq))
}

func (m *Metric) valid() bool {
	return m.Value == metricValue(m.Seq) && m.Sum == sumPad(m.Pad)^seqMix(m.Seq)
}

// identifier returns a seed-generated lower-case name of n letters.
func identifier(rng *rand.Rand, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(byte('a' + rng.Intn(26)))
	}
	return sb.String()
}

// xsdScalarTypes are the built-in types the generated filler types draw on.
var xsdScalarTypes = []string{"xsd:int", "xsd:long", "xsd:double", "xsd:float", "xsd:unsignedInt", "xsd:string", "xsd:short"}

// eventSchema renders the XML Schema document a component discovers: the
// named event type (values of the given element type) preceded by `extra`
// seed-generated sibling types, the way an instrument catalogue carries more
// than the one format a given subscriber binds.  The seed chooses names and
// types; the document's shape — elements per type, name lengths — is fixed,
// so that runs with different seeds parse documents of the same size.
func eventSchema(rng *rand.Rand, typeName, valueType string, extra int) string {
	const elements, nameLen = 7, 8
	var sb strings.Builder
	sb.WriteString("<?xml version=\"1.0\"?>\n<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">\n")
	for t := 0; t < extra; t++ {
		fmt.Fprintf(&sb, "  <xsd:complexType name=\"T%s\">\n", identifier(rng, nameLen))
		used := map[string]bool{}
		for len(used) < elements {
			name := identifier(rng, nameLen)
			if used[name] {
				continue
			}
			used[name] = true
			fmt.Fprintf(&sb, "    <xsd:element name=\"%s\" type=\"%s\" />\n", name, xsdScalarTypes[rng.Intn(len(xsdScalarTypes))])
		}
		sb.WriteString("  </xsd:complexType>\n")
	}
	fmt.Fprintf(&sb, `  <xsd:complexType name="%s">
    <xsd:element name="seq" type="xsd:long" />
    <xsd:element name="sum" type="xsd:unsignedLong" />
    <xsd:element name="count" type="xsd:int" />
    <xsd:element name="values" type="%s" minOccurs="0" maxOccurs="*"
        dimensionPlacement="before" dimensionName="count" />
  </xsd:complexType>
</xsd:schema>
`, typeName, valueType)
	return sb.String()
}

// nativeFields is the compiled-in equivalent of eventSchema's event type:
// the PBIO registration the paper uses as its baseline.
func nativeFields(valueType string) []pbio.IOField {
	return []pbio.IOField{
		{Name: "seq", Type: "integer(8)"},
		{Name: "sum", Type: "unsigned(8)"},
		{Name: "count", Type: "integer"},
		{Name: "values", Type: valueType + "[count]"},
	}
}

// metricLineage builds the evolving lineage: v1 is Metric's layout and each
// of the `steps` later versions appends one 8-byte integer field with a
// seed-generated name — the backward-compatible growth a telemetry format
// accretes in production.
func metricLineage(rng *rand.Rand, p *platform.Platform, steps int) ([]*meta.Format, error) {
	defs := []meta.FieldDef{
		{Name: "seq", Kind: meta.Unsigned, Class: platform.LongLong},
		{Name: "sum", Kind: meta.Unsigned, Class: platform.LongLong},
		{Name: "value", Kind: meta.Float, Class: platform.Double},
		{Name: "pad", Kind: meta.Integer, Class: platform.Int, StaticDim: metricPad},
	}
	out := make([]*meta.Format, 0, steps+1)
	for v := 0; v <= steps; v++ {
		f, err := meta.Build("metric", p, append([]meta.FieldDef(nil), defs...))
		if err != nil {
			return nil, err
		}
		out = append(out, f)
		defs = append(defs, meta.FieldDef{
			Name: fmt.Sprintf("g%d_%s", v+1, identifier(rng, 5)), Kind: meta.Integer, Class: platform.LongLong,
		})
	}
	return out, nil
}

// catalogueFormats builds n one-version lineages with seed-generated names
// and field sets, the bulk of a grid-sized format catalogue.
func catalogueFormats(rng *rand.Rand, p *platform.Platform, n int) ([]*meta.Format, error) {
	classes := []struct {
		kind  meta.Kind
		class platform.Class
	}{
		{meta.Integer, platform.Int}, {meta.Integer, platform.LongLong}, {meta.Unsigned, platform.Int},
		{meta.Float, platform.Double}, {meta.Float, platform.Float}, {meta.Integer, platform.Short},
	}
	out := make([]*meta.Format, 0, n)
	for i := 0; i < n; i++ {
		nf := 3 + rng.Intn(6)
		defs := make([]meta.FieldDef, 0, nf)
		for j := 0; j < nf; j++ {
			c := classes[rng.Intn(len(classes))]
			d := meta.FieldDef{Name: fmt.Sprintf("%s%d", identifier(rng, 4), j), Kind: c.kind, Class: c.class}
			if rng.Intn(4) == 0 {
				d.StaticDim = 2 + rng.Intn(7)
			}
			defs = append(defs, d)
		}
		f, err := meta.Build(fmt.Sprintf("cat%05d_%s", i, identifier(rng, 4)), p, defs)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}
