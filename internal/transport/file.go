package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"github.com/open-metadata/xmit/internal/pbio"
)

// A PBIO data file is the transport's frame stream behind an 8-byte magic:
// the paper's PBIO covers structures "transmitted in binary form over
// computer networks or written to data files", and both are one wire
// format here.  Every format is announced before its first use, so any
// reader — on any platform, with an empty context — decodes the file,
// into structs or dynamic records.
const fileMagic = "XMITPBF1"

var errFileDirection = errors.New("transport: a data file is either read or written")

// NewFileWriter starts a PBIO data file on w and returns a send-only Conn
// over it.  Frames are buffered; Close flushes them and closes w if it is
// an io.Closer.  A data file always announces its formats in band and
// keeps to DefaultMaxFrame, so it takes no options.
func NewFileWriter(w io.Writer, ctx *pbio.Context) *Conn {
	bw := bufio.NewWriter(w)
	bw.WriteString(fileMagic) // lands in the empty buffer: cannot fail
	c, _ := w.(io.Closer)
	return NewConn(&fileStream{w: bw, c: c}, ctx)
}

// NewFileReader checks the magic at the head of r and returns a
// receive-only Conn over the frames after it.  Close closes r if it is an
// io.Closer.
func NewFileReader(r io.Reader, ctx *pbio.Context) (*Conn, error) {
	rd := bufio.NewReader(r)
	magic, err := rd.Peek(len(fileMagic))
	if err != nil {
		return nil, fmt.Errorf("transport: reading data-file magic: %w", midFrame(err))
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("transport: bad data-file magic %q", magic)
	}
	rd.Discard(len(fileMagic))
	c, _ := r.(io.Closer)
	return NewConnReader(&fileStream{c: c}, rd, ctx), nil
}

// fileStream is the io.ReadWriteCloser under a data-file Conn.  A reader's
// Conn receives through the bufio.Reader that consumed the magic, so Read
// is never the way in; a writer's sends go through w.
type fileStream struct {
	w *bufio.Writer // nil on a reader
	c io.Closer     // nil when the underlying stream has no Close
}

func (s *fileStream) Read([]byte) (int, error) { return 0, errFileDirection }

func (s *fileStream) Write(p []byte) (int, error) {
	if s.w == nil {
		return 0, errFileDirection
	}
	return s.w.Write(p)
}

func (s *fileStream) Close() error {
	var err error
	if s.w != nil {
		err = s.w.Flush()
	}
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
