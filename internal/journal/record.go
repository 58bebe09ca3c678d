// Entry codec: the journal stores opaque frames; the ingestion daemon's
// frames are log entries in a compact binary form. The sequence number is
// encoded in the payload (it is the daemon's global arrival order, distinct
// from the journal LSN), timestamps keep full nanosecond precision, and
// strings are length-prefixed so statements may contain anything.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"sqlclean/internal/logmodel"
)

// EncodeEntry appends the wire form of e to dst and returns the result.
func EncodeEntry(dst []byte, e logmodel.Entry) []byte {
	dst = binary.AppendVarint(dst, e.Seq)
	dst = binary.AppendVarint(dst, e.Time.UnixNano())
	dst = binary.AppendVarint(dst, e.Rows)
	dst = appendString(dst, e.User)
	dst = appendString(dst, e.Session)
	dst = appendString(dst, e.Statement)
	return dst
}

// AppendBatch frames a batch of entries — one frame per entry, holding
// EncodeEntry(nil, e) — under a single lock acquisition, encoding into the
// writer's reused scratch buffer so the accept path pays no per-entry
// payload allocation. It is the journal's only append. Frames are buffered;
// call Commit before acknowledging them.
//
// On an I/O error mid-batch it returns how many leading entries were framed:
// the journal holds exactly that prefix, so the caller can acknowledge it and
// refuse the rest. The last framed LSN is returned for batch bookkeeping
// (meaningful when appended > 0).
func (w *Writer) AppendBatch(entries []logmodel.Entry) (appended int, lastLSN uint64, err error) {
	if len(entries) == 0 {
		return 0, 0, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, 0, errors.New("journal: writer closed")
	}
	for _, e := range entries {
		w.encBuf = EncodeEntry(w.encBuf[:0], e)
		lsn, err := w.appendFrameLocked(w.encBuf)
		if err != nil {
			return appended, lastLSN, err
		}
		appended++
		lastLSN = lsn
	}
	return appended, lastLSN, nil
}

// DecodeEntry parses a payload written by EncodeEntry.
func DecodeEntry(data []byte) (logmodel.Entry, error) {
	var e logmodel.Entry
	var ns int64
	var err error
	if e.Seq, data, err = readVarint(data); err != nil {
		return e, fmt.Errorf("journal: entry seq: %w", err)
	}
	if ns, data, err = readVarint(data); err != nil {
		return e, fmt.Errorf("journal: entry time: %w", err)
	}
	e.Time = time.Unix(0, ns).UTC()
	if e.Rows, data, err = readVarint(data); err != nil {
		return e, fmt.Errorf("journal: entry rows: %w", err)
	}
	if e.User, data, err = readString(data); err != nil {
		return e, fmt.Errorf("journal: entry user: %w", err)
	}
	if e.Session, data, err = readString(data); err != nil {
		return e, fmt.Errorf("journal: entry session: %w", err)
	}
	if e.Statement, data, err = readString(data); err != nil {
		return e, fmt.Errorf("journal: entry statement: %w", err)
	}
	if len(data) != 0 {
		return e, fmt.Errorf("journal: %d trailing bytes after entry", len(data))
	}
	return e, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

var errShort = errors.New("short payload")

func readVarint(data []byte) (int64, []byte, error) {
	v, n := binary.Varint(data)
	if n <= 0 {
		return 0, nil, errShort
	}
	return v, data[n:], nil
}

func readString(data []byte) (string, []byte, error) {
	l, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < l {
		return "", nil, errShort
	}
	return string(data[n : n+int(l)]), data[n+int(l):], nil
}
