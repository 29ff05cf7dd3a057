package transport

import (
	"errors"
	"io"
	"sync"
	"testing"

	"github.com/open-metadata/xmit/internal/fmtserver"
	"github.com/open-metadata/xmit/internal/obs"
	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
)

type SimpleData struct {
	Timestep int32
	Size     int32
	Data     []float32
}

func senderContext(t testing.TB, p *platform.Platform) (*pbio.Context, *pbio.Binding) {
	t.Helper()
	ctx := pbio.NewContext(pbio.WithPlatform(p))
	f, err := ctx.RegisterFields("SimpleData", []pbio.IOField{
		{Name: "timestep", Type: "integer"},
		{Name: "size", Type: "integer"},
		{Name: "data", Type: "float[size]"},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.Bind(f, &SimpleData{})
	if err != nil {
		t.Fatal(err)
	}
	return ctx, b
}

// TestPipeInBand: the receiver has no prior knowledge; metadata arrives
// in-band exactly once, then any number of data messages flow.
func TestPipeInBand(t *testing.T) {
	sctx, b := senderContext(t, platform.Sparc32)
	rctx := pbio.NewContext(pbio.WithPlatform(platform.X8664))
	cs, cr := Pipe(sctx, rctx)
	defer cs.Close()
	defer cr.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			in := SimpleData{Timestep: int32(i), Data: []float32{float32(i), float32(2 * i)}}
			if err := cs.Send(b, &in); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < 3; i++ {
		var out SimpleData
		f, err := cr.Recv(&out)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name != "SimpleData" {
			t.Errorf("format = %s", f.Name)
		}
		if out.Timestep != int32(i) || out.Size != 2 || out.Data[1] != float32(2*i) {
			t.Errorf("message %d: %+v", i, out)
		}
	}
	wg.Wait()
	if cs.Context() != sctx {
		t.Error("Context accessor broken")
	}
}

// TestTCPOutOfBand: metadata flows through a format server; the data
// connection carries only IDs and bodies.
func TestTCPOutOfBand(t *testing.T) {
	fs := fmtserver.NewServer(nil)
	fsAddr, err := fs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	sctx, b := senderContext(t, platform.Sparc32)
	pub := fmtserver.NewClient(fsAddr)
	defer pub.Close()
	if _, err := pub.Register(b.Format()); err != nil {
		t.Fatal(err)
	}

	sub := fmtserver.NewClient(fsAddr)
	defer sub.Close()
	rctx := pbio.NewContext(pbio.WithPlatform(platform.X8664), pbio.WithResolver(sub))

	ln, err := Listen("127.0.0.1:0", rctx, WithMode(OutOfBand))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		var out SimpleData
		if _, err := conn.Recv(&out); err != nil {
			done <- err
			return
		}
		if out.Timestep != 9 || out.Data[0] != 1.25 {
			t.Errorf("decoded %+v", out)
		}
		done <- nil
	}()

	cs, err := Dial(ln.Addr(), sctx, WithMode(OutOfBand))
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	in := SimpleData{Timestep: 9, Data: []float32{1.25}}
	if err := cs.Send(b, &in); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestRecordFlow: records travel like structs, and an unknown-to-the-
// receiver format still decodes as a record (run-time type extension).
func TestRecordFlow(t *testing.T) {
	sctx, b := senderContext(t, platform.Sparc32)
	rctx := pbio.NewContext()
	cs, cr := Pipe(sctx, rctx)
	defer cs.Close()
	defer cr.Close()

	go func() {
		r := pbio.NewRecord(b.Format())
		r.Set("timestep", 4)
		r.Set("data", []float32{7})
		if err := cs.SendRecord(r); err != nil {
			t.Error(err)
		}
	}()
	rec, err := cr.RecvRecord()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := rec.Get("timestep"); v.(int64) != 4 {
		t.Errorf("timestep = %v", v)
	}
	if v, _ := rec.Get("size"); v.(int64) != 1 {
		t.Errorf("size = %v", v)
	}
}

// TestFormatAnnouncedOnce: three messages produce exactly one format frame.
func TestFormatAnnouncedOnce(t *testing.T) {
	sctx, b := senderContext(t, platform.X8664)
	rctx := pbio.NewContext()
	cs, cr := Pipe(sctx, rctx)
	defer cs.Close()
	defer cr.Close()

	go func() {
		for i := 0; i < 3; i++ {
			in := SimpleData{Timestep: int32(i)}
			cs.Send(b, &in)
		}
	}()
	frames := 0
	for i := 0; i < 3; i++ {
		var out SimpleData
		if _, err := cr.Recv(&out); err != nil {
			t.Fatal(err)
		}
		frames++
	}
	// If metadata were resent per message the pipe would deadlock or the
	// receiver would see it; indirectly verified by successful decoding
	// plus the announced-map check:
	if !senderAnnounced(cs, b) {
		t.Error("sender did not record the announcement")
	}
}

func senderAnnounced(c *Conn, b *pbio.Binding) bool {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	return c.announced[b.ID()]
}

// TestEvolutionOverWire: sender evolves its format mid-stream; the receiver
// keeps decoding into its old struct.
func TestEvolutionOverWire(t *testing.T) {
	sctx := pbio.NewContext(pbio.WithPlatform(platform.Sparc32))
	f1, err := sctx.RegisterFields("Event", []pbio.IOField{
		{Name: "seq", Type: "integer"},
	})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := sctx.RegisterFields("Event", []pbio.IOField{
		{Name: "seq", Type: "integer"},
		{Name: "note", Type: "string"},
	})
	if err != nil {
		t.Fatal(err)
	}
	type v1 struct{ Seq int32 }
	type v2 struct {
		Seq  int32
		Note string
	}
	b1, _ := sctx.Bind(f1, &v1{})
	b2, _ := sctx.Bind(f2, &v2{})

	rctx := pbio.NewContext()
	cs, cr := Pipe(sctx, rctx)
	defer cs.Close()
	defer cr.Close()

	go func() {
		cs.Send(b1, &v1{Seq: 1})
		cs.Send(b2, &v2{Seq: 2, Note: "evolved"})
	}()
	var out v1
	if _, err := cr.Recv(&out); err != nil || out.Seq != 1 {
		t.Fatalf("first: %v %+v", err, out)
	}
	f, err := cr.Recv(&out)
	if err != nil || out.Seq != 2 {
		t.Fatalf("second: %v %+v", err, out)
	}
	if f.FieldByName("note") < 0 {
		t.Error("receiver should have learned the evolved wire format")
	}
}

func TestUnknownFormatWithoutResolver(t *testing.T) {
	sctx, b := senderContext(t, platform.Sparc32)
	rctx := pbio.NewContext() // no resolver
	cs, cr := Pipe(sctx, rctx, WithMode(OutOfBand))
	defer cs.Close()
	defer cr.Close()
	go func() {
		in := SimpleData{Timestep: 1}
		cs.Send(b, &in)
	}()
	var out SimpleData
	if _, err := cr.Recv(&out); err == nil {
		t.Error("decode of unannounced, unresolvable format should fail")
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	sctx, b := senderContext(t, platform.X8664)
	// Out-of-band mode: the only write attempted is the (oversize) data
	// frame, which must be rejected before any blocking I/O.
	cs, cr := Pipe(sctx, pbio.NewContext(), WithMode(OutOfBand), WithMaxFrame(1024))
	defer cr.Close()
	in := SimpleData{Data: make([]float32, 1024/4+16)}
	errc := make(chan error, 1)
	go func() {
		errc <- cs.Send(b, &in)
	}()
	// The send must fail locally without writing, with the typed error.
	if err := <-errc; !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversize message returned %v, want ErrFrameTooLarge", err)
	}
	cs.Close()
}

// TestStats: the amortisation argument made observable — metadata frames
// stay at one while data messages grow.
func TestStats(t *testing.T) {
	sctx, b := senderContext(t, platform.Sparc32)
	rctx := pbio.NewContext()
	cs, cr := Pipe(sctx, rctx)
	defer cs.Close()
	defer cr.Close()

	const n = 5
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			in := SimpleData{Timestep: int32(i), Data: []float32{1}}
			cs.Send(b, &in)
		}
	}()
	for i := 0; i < n; i++ {
		var out SimpleData
		if _, err := cr.Recv(&out); err != nil {
			t.Fatal(err)
		}
	}
	<-done // the sender finishes updating its counters after the last write
	ss, rs := cs.Stats(), cr.Stats()
	if ss.MessagesSent != n || ss.FormatsAnnounced != 1 {
		t.Errorf("sender stats %+v", ss)
	}
	if rs.MessagesReceived != n || rs.FormatsLearned != 1 {
		t.Errorf("receiver stats %+v", rs)
	}
	if ss.BytesSent == 0 || ss.BytesSent != rs.BytesReceived {
		t.Errorf("bytes: sent %d received %d", ss.BytesSent, rs.BytesReceived)
	}
	if rs.MessagesSent != 0 || ss.MessagesReceived != 0 {
		t.Errorf("idle directions should be zero: %+v %+v", ss, rs)
	}
}

// TestPublishStats: the connection's counters surface through an obs
// registry as live computed metrics.
func TestPublishStats(t *testing.T) {
	sctx, b := senderContext(t, platform.Sparc32)
	rctx := pbio.NewContext()
	cs, cr := Pipe(sctx, rctx)
	defer cs.Close()
	defer cr.Close()

	reg := obs.NewRegistry()
	cs.PublishStats(reg, "conn_tx")
	cr.PublishStats(reg, "conn_rx")

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ {
			cs.Send(b, &SimpleData{Timestep: int32(i), Data: []float32{1}})
		}
	}()
	for i := 0; i < 3; i++ {
		var out SimpleData
		if _, err := cr.Recv(&out); err != nil {
			t.Fatal(err)
		}
	}
	<-done

	for name, want := range map[string]float64{
		"conn_tx_messages_sent":     3,
		"conn_tx_formats_announced": 1,
		"conn_rx_messages_received": 3,
		"conn_rx_formats_learned":   1,
	} {
		if got, ok := reg.Value(name); !ok || got != want {
			t.Errorf("%s = %v (ok=%v), want %v", name, got, ok, want)
		}
	}
	sent, _ := reg.Value("conn_tx_bytes_sent")
	recv, _ := reg.Value("conn_rx_bytes_received")
	if sent == 0 || sent != recv {
		t.Errorf("bytes: sent %v received %v", sent, recv)
	}
}

// discardRWC swallows writes; the send-path checks measure marshaling and
// framing, not a peer.
type discardRWC struct{}

func (discardRWC) Read(p []byte) (int, error)  { return 0, io.EOF }
func (discardRWC) Write(p []byte) (int, error) { return len(p), nil }
func (discardRWC) Close() error                { return nil }

// TestSendAllocs is the steady-state gate on the send path: once the format
// is announced, Send marshals into a pooled frame and writes it with no
// allocation.
func TestSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector; the gate would measure that")
	}
	sctx, bind := senderContext(t, platform.X8664)
	cs := NewConn(discardRWC{}, sctx)
	in := SimpleData{Timestep: 7, Data: []float32{1, 2, 3, 4, 5, 6, 7, 8}}
	for i := 0; i < 50; i++ {
		if err := cs.Send(bind, &in); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := cs.Send(bind, &in); err != nil {
			t.Error(err)
		}
	}); n != 0 {
		t.Errorf("Send steady state: %v allocs/op, want 0", n)
	}
}

// BenchmarkSend measures the pooled send path; allocs/op is the headline
// number (0 in steady state).
func BenchmarkSend(b *testing.B) {
	sctx, bind := senderContext(b, platform.X8664)
	cs := NewConn(discardRWC{}, sctx)
	in := SimpleData{Timestep: 7, Data: []float32{1, 2, 3, 4, 5, 6, 7, 8}}
	if err := cs.Send(bind, &in); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cs.Send(bind, &in); err != nil {
			b.Fatal(err)
		}
	}
}
