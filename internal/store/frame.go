package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// The store's two append-only files — the registry journal and the format
// pack — are flat sequences of CRC-framed records:
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// (big-endian).  The framing makes a torn tail detectable: a record whose
// header is incomplete, whose declared length runs past EOF or whose CRC
// mismatches ends the file at the last clean record.  A frame is appended
// with a single Write, so a crash tears at most one record; the tail is cut
// when the file is next opened, so later appends extend a consistent log.

const frameHeader = 8 // u32 length + u32 crc

// appendFrame appends the framed encoding of payload to buf.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// frameFault says why nextFrame stopped.
type frameFault int

const (
	frameOK      frameFault = iota
	frameTorn               // incomplete header, or a length no whole record could have
	frameCorrupt            // a whole record is there and its CRC does not match
)

// nextFrame splits the first frame off data.  The payload aliases data.  It
// never panics, whatever data holds.
func nextFrame(data []byte, maxPayload int) (payload, rest []byte, fault frameFault) {
	if len(data) < frameHeader {
		return nil, data, frameTorn
	}
	n := int(binary.BigEndian.Uint32(data))
	if n > maxPayload || n > len(data)-frameHeader {
		return nil, data, frameTorn
	}
	payload = data[frameHeader : frameHeader+n]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(data[4:]) {
		return nil, data, frameCorrupt
	}
	return payload, data[frameHeader+n:], frameOK
}

// openLog opens the framed file at path for appending.  scan is handed the
// file's current content in one sequential read (it may keep the slice) and
// returns the length of its clean prefix; anything past it is a torn tail
// and is cut before the file is opened.
func openLog(path string, scan func(data []byte) (clean int)) (f *os.File, cut bool, err error) {
	if data, err := os.ReadFile(path); err == nil {
		if clean := scan(data); clean < len(data) {
			cut = true
			if err := os.Truncate(path, int64(clean)); err != nil {
				return nil, false, fmt.Errorf("store: cutting torn tail of %s: %w", path, err)
			}
		}
	}
	f, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	return f, cut, nil
}

// appendLog writes one frame to an open log in a single Write, fsyncing
// when asked.
func appendLog(f *os.File, payload []byte, sync bool) error {
	if _, err := f.Write(appendFrame(nil, payload)); err != nil {
		return fmt.Errorf("store: appending to %s: %w", f.Name(), err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			return fmt.Errorf("store: syncing %s: %w", f.Name(), err)
		}
	}
	return nil
}
