package transport

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/open-metadata/xmit/internal/pbio"
	"github.com/open-metadata/xmit/internal/platform"
)

type event struct {
	Seq  int32
	Temp float32
	Note string
}

type frame struct {
	Step int32
	N    int32
	Vals []float64
}

func fileContext(t *testing.T, p *platform.Platform) (*pbio.Context, *pbio.Binding, *pbio.Binding) {
	t.Helper()
	ctx := pbio.NewContext(pbio.WithPlatform(p))
	ef, err := ctx.RegisterFields("event", []pbio.IOField{
		{Name: "seq", Type: "integer"},
		{Name: "temp", Type: "float"},
		{Name: "note", Type: "string"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ff, err := ctx.RegisterFields("frame", []pbio.IOField{
		{Name: "step", Type: "integer"},
		{Name: "n", Type: "integer"},
		{Name: "vals", Type: "double[n]"},
	})
	if err != nil {
		t.Fatal(err)
	}
	eb, err := ctx.Bind(ef, &event{})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := ctx.Bind(ff, &frame{})
	if err != nil {
		t.Fatal(err)
	}
	return ctx, eb, fb
}

// TestFileGolden pins the data-file bytes: testdata/golden.pbf was written
// by the data-file writer that predates NewFileWriter (its own copy of the
// frame codec), and the transport's frames must reproduce it exactly.  The
// file then decodes through the transport reader with an empty context.
func TestFileGolden(t *testing.T) {
	ctx, eb, fb := fileContext(t, platform.Sparc32)
	var buf bytes.Buffer
	w := NewFileWriter(&buf, ctx)
	for i := 0; i < 3; i++ {
		if err := w.Send(eb, &event{Seq: int32(i), Temp: float32(i) + 0.5, Note: "golden"}); err != nil {
			t.Fatal(err)
		}
		if err := w.Send(fb, &frame{Step: int32(i), Vals: []float64{float64(i), -1.25, 1e300}}); err != nil {
			t.Fatal(err)
		}
	}
	rec := pbio.NewRecord(eb.Format())
	rec.Set("seq", 42)
	rec.Set("temp", -3.75)
	rec.Set("note", "as-record")
	if err := w.SendRecord(rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.pbf"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("writer produced %d bytes that differ from the %d-byte golden file", buf.Len(), len(golden))
	}

	r, err := NewFileReader(bytes.NewReader(golden), pbio.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		var e event
		if _, err := r.Recv(&e); err != nil {
			t.Fatal(err)
		}
		if e != (event{Seq: int32(i), Temp: float32(i) + 0.5, Note: "golden"}) {
			t.Errorf("event %d: %+v", i, e)
		}
		var fr frame
		if _, err := r.Recv(&fr); err != nil {
			t.Fatal(err)
		}
		if fr.Step != int32(i) || fr.N != 3 || fr.Vals[2] != 1e300 {
			t.Errorf("frame %d: %+v", i, fr)
		}
	}
	back, err := r.RecvRecord()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := back.Get("note"); v != "as-record" {
		t.Errorf("record note = %v", v)
	}
	if _, err := r.RecvRecord(); err != io.EOF {
		t.Errorf("want io.EOF at end, got %v", err)
	}
	if st := r.Stats(); st.FormatsLearned != 2 || st.MessagesReceived != 7 {
		t.Errorf("reader learned %d formats from %d messages, want 2 from 7", st.FormatsLearned, st.MessagesReceived)
	}
}

func TestWriteReadMixedStream(t *testing.T) {
	ctx, eb, fb := fileContext(t, platform.Sparc32)
	var buf bytes.Buffer
	w := NewFileWriter(&buf, ctx)
	for i := 0; i < 3; i++ {
		if err := w.Send(eb, &event{Seq: int32(i), Temp: float32(i) + 0.5, Note: "e"}); err != nil {
			t.Fatal(err)
		}
		if err := w.Send(fb, &frame{Step: int32(i), Vals: []float64{float64(i), 2}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RecvRecord(); !errors.Is(err, errFileDirection) {
		t.Errorf("receive on a file writer: %v, want errFileDirection", err)
	}

	// A reader on a different platform with an empty context: everything
	// needed is in the file.
	r, err := NewFileReader(bytes.NewReader(buf.Bytes()), pbio.NewContext(pbio.WithPlatform(platform.X8664)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		var e event
		f, err := r.Recv(&e)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name != "event" || e.Seq != int32(i) || e.Temp != float32(i)+0.5 {
			t.Errorf("event %d: %s %+v", i, f.Name, e)
		}
		var fr frame
		if _, err := r.Recv(&fr); err != nil {
			t.Fatal(err)
		}
		if fr.Step != int32(i) || fr.N != 2 || fr.Vals[1] != 2 {
			t.Errorf("frame %d: %+v", i, fr)
		}
	}
	if _, _, err := r.RecvMessage(); err != io.EOF {
		t.Errorf("want io.EOF at end, got %v", err)
	}
	if err := r.Send(eb, &event{}); !errors.Is(err, errFileDirection) {
		t.Errorf("send on a file reader: %v, want errFileDirection", err)
	}
}

// TestMetadataWrittenOnce: n messages of one format produce exactly one
// format frame.
func TestMetadataWrittenOnce(t *testing.T) {
	ctx, eb, _ := fileContext(t, platform.Sparc32)
	var one, many bytes.Buffer
	w1 := NewFileWriter(&one, ctx)
	w1.Send(eb, &event{Seq: 1})
	w1.Close()
	wN := NewFileWriter(&many, ctx)
	for i := 0; i < 10; i++ {
		wN.Send(eb, &event{Seq: int32(i)})
	}
	wN.Close()
	perMsg := 5 + 8 + eb.Format().Size // frame header + ID + empty-string body
	if got, want := many.Len()-one.Len(), 9*perMsg; got != want {
		t.Errorf("9 extra messages cost %d bytes, want %d (metadata must not repeat)", got, want)
	}
}

func TestFileRoundTripOnDisk(t *testing.T) {
	ctx, eb, _ := fileContext(t, platform.X86)
	path := filepath.Join(t.TempDir(), "events.pbf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewFileWriter(f, ctx)
	if err := w.Send(eb, &event{Seq: 7, Note: "disk"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0}); err == nil {
		t.Error("Close left the file open")
	}
	in, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewFileReader(in, pbio.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	var e event
	if _, err := r.Recv(&e); err != nil {
		t.Fatal(err)
	}
	if e.Seq != 7 || e.Note != "disk" {
		t.Errorf("decoded %+v", e)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err == nil {
		t.Error("Close left the file open")
	}
}

// TestRecordsAndEvolution: records write and read; a reader decoding into
// an older struct shape still works.
func TestRecordsAndEvolution(t *testing.T) {
	ctx, eb, _ := fileContext(t, platform.Sparc32)
	var buf bytes.Buffer
	w := NewFileWriter(&buf, ctx)
	rec := pbio.NewRecord(eb.Format())
	rec.Set("seq", 5)
	rec.Set("note", "as-record")
	if err := w.SendRecord(rec); err != nil {
		t.Fatal(err)
	}
	w.Close()

	r, _ := NewFileReader(bytes.NewReader(buf.Bytes()), pbio.NewContext())
	back, err := r.RecvRecord()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := back.Get("note"); v.(string) != "as-record" {
		t.Errorf("note = %v", v)
	}

	// Old reader: struct lacking the "note" field.
	r2, _ := NewFileReader(bytes.NewReader(buf.Bytes()), pbio.NewContext())
	var old struct{ Seq int32 }
	if _, err := r2.Recv(&old); err != nil {
		t.Fatal(err)
	}
	if old.Seq != 5 {
		t.Errorf("old reader decoded %+v", old)
	}
}

func TestReaderErrors(t *testing.T) {
	ctx := pbio.NewContext()
	if _, err := NewFileReader(bytes.NewReader([]byte("NOTMAGIC")), ctx); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := NewFileReader(bytes.NewReader([]byte("XMIT")), ctx); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short header: %v, want io.ErrUnexpectedEOF", err)
	}

	// Truncated frame.
	wctx, eb, _ := fileContext(t, platform.Sparc32)
	var buf bytes.Buffer
	w := NewFileWriter(&buf, wctx)
	w.Send(eb, &event{Seq: 1})
	w.Close()
	data := buf.Bytes()
	for _, cut := range []int{9, 12, len(data) - 3} {
		r, err := NewFileReader(bytes.NewReader(data[:cut]), pbio.NewContext())
		if err != nil {
			t.Fatal(err)
		}
		var e event
		if _, err := r.Recv(&e); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("truncation at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}

	// Corrupt frame kind.
	mut := append([]byte(nil), data...)
	mut[len(fileMagic)+4] = 99
	r, _ := NewFileReader(bytes.NewReader(mut), pbio.NewContext())
	var e event
	if _, err := r.Recv(&e); err == nil {
		t.Error("unknown frame kind should fail")
	}

	// Corrupt metadata payload.
	mut2 := append([]byte(nil), data...)
	mut2[len(fileMagic)+5] ^= 0xff
	r2, _ := NewFileReader(bytes.NewReader(mut2), pbio.NewContext())
	if _, err := r2.Recv(&e); err == nil {
		t.Error("corrupt metadata should fail")
	}
}

// TestHeterogeneousFile: files written on every platform read everywhere.
func TestHeterogeneousFile(t *testing.T) {
	for _, wp := range platform.All() {
		ctx, eb, fb := fileContext(t, wp)
		var buf bytes.Buffer
		w := NewFileWriter(&buf, ctx)
		w.Send(eb, &event{Seq: 11, Temp: -2.5, Note: wp.Name})
		w.Send(fb, &frame{Step: 3, Vals: []float64{1.5}})
		w.Close()
		for _, rp := range platform.All() {
			r, err := NewFileReader(bytes.NewReader(buf.Bytes()), pbio.NewContext(pbio.WithPlatform(rp)))
			if err != nil {
				t.Fatal(err)
			}
			var e event
			if _, err := r.Recv(&e); err != nil {
				t.Fatalf("%s->%s: %v", wp, rp, err)
			}
			if e.Seq != 11 || e.Temp != -2.5 || e.Note != wp.Name {
				t.Errorf("%s->%s: %+v", wp, rp, e)
			}
			var fr frame
			if _, err := r.Recv(&fr); err != nil {
				t.Fatal(err)
			}
			if fr.Vals[0] != 1.5 {
				t.Errorf("%s->%s: %+v", wp, rp, fr)
			}
		}
	}
}

// TestWriterAllocFree pins the data file to the socket's zero-allocation
// send path: once the binding is warm and the announcement frame is
// written, Send on a file Conn builds each frame in a pooled buffer and
// hands it to the buffered stream without allocating.
func TestWriterAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector; the gate would measure that")
	}
	ctx, eb, _ := fileContext(t, platform.Sparc32)
	w := NewFileWriter(io.Discard, ctx)

	// Warm: announce the format, compile the encode plan, prime the pool.
	in := event{Seq: 1, Temp: 21.5, Note: "warm"}
	for i := 0; i < 8; i++ {
		if err := w.Send(eb, &in); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		in.Seq++
		if err := w.Send(eb, &in); err != nil {
			t.Error(err)
		}
	}); n != 0 {
		t.Errorf("file Send: %v allocs/op, want 0", n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
