package transport_test

import (
	"fmt"

	"github.com/open-metadata/xmit/internal/core"
	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
	"github.com/open-metadata/xmit/internal/transport"
)

const telemetrySchema = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Telemetry">
    <xsd:element name="node" type="xsd:string" />
    <xsd:element name="address" type="xsd:unsignedLong" />
    <xsd:element name="sequence" type="xsd:integer" />
    <xsd:element name="load" type="xsd:double" />
    <xsd:element name="readings" type="xsd:float" minOccurs="0" maxOccurs="*"
        dimensionPlacement="before" dimensionName="count" />
  </xsd:complexType>
</xsd:schema>`

// A big-endian 32-bit sender (the paper's SPARC testbed) talks to a
// little-endian 64-bit receiver.  The sender transmits in its native
// layout; the format arrives in-band, and the receiver's conversion plan
// bridges byte order, pointer width and the size of "unsigned long" —
// PBIO's receiver-makes-right discipline.
func ExamplePipe() {
	tk := core.NewToolkit(core.WithMetrics(obs.NewRegistry()))
	if _, err := tk.LoadString(telemetrySchema); err != nil {
		panic(err)
	}
	senderCtx := pbio.NewContext(pbio.WithPlatform(platform.Sparc32))
	tok, err := tk.Register("Telemetry", senderCtx)
	if err != nil {
		panic(err)
	}
	fmt.Printf("sender: %d-byte struct on %s\n", tok.Format.Size, tok.Format.Platform)

	type Telemetry struct {
		Node     string
		Address  uint64 // a 4-byte unsigned long on the sparc32 wire
		Sequence int32
		Load     float64
		Readings []float32
	}
	send, recv := transport.Pipe(senderCtx, pbio.NewContext(pbio.WithPlatform(platform.X8664)))
	defer send.Close()
	defer recv.Close()
	go func() {
		b, err := senderCtx.Bind(tok.Format, &Telemetry{})
		if err != nil {
			panic(err)
		}
		msg := Telemetry{Node: "ultra1-170", Address: 0xFEEDFACE, Sequence: -17,
			Load: 0.73, Readings: []float32{1.5, -2.25, 3.125}}
		if err := send.Send(b, &msg); err != nil {
			panic(err)
		}
	}()

	var out Telemetry
	wire, err := recv.Recv(&out)
	if err != nil {
		panic(err)
	}
	fmt.Printf("receiver on x86_64 got %q laid out for %s\n", wire.Name, wire.Platform)
	fmt.Printf("decoded: %+v (address %#x)\n", out, out.Address)
	// Output:
	// sender: 32-byte struct on sparc32
	// receiver on x86_64 got "Telemetry" laid out for sparc32
	// decoded: {Node:ultra1-170 Address:4277009102 Sequence:-17 Load:0.73 Readings:[1.5 -2.25 3.125]} (address 0xfeedface)
}
