// Block encoding. A block is the columnar form of one compacted journal
// segment: every logmodel.Entry field becomes a column stream, statements
// are factored into a template dictionary plus per-slot parameter streams,
// and each section is framed with length + CRC32C exactly like the journal,
// so a torn or bit-rotted block is detected on read, never silently
// misdecoded.
//
// File layout:
//
//	magic "SQCOLBK1" (8 bytes)
//	section*            each: [length u32 LE] [crc32c u32 LE] [body]
//
// where length counts the body and the CRC (Castagnoli) covers the body.
// A body is [type u8] [enc u8] [payload]: enc 0 is raw, enc 1 is DEFLATE
// (parameter and dictionary sections are text-heavy and compress hard).
// Sections appear in a fixed order with the metadata and template
// dictionary first, so index reads — time bounds, template IDs, per-template
// counts, verdicts — never touch the column payloads.
package colstore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"

	"sqlclean/internal/fsutil"
	"sqlclean/internal/logmodel"
)

var blockMagic = [8]byte{'S', 'Q', 'C', 'O', 'L', 'B', 'K', '1'}

// Section types, in their required file order.
const (
	secMeta     = 1 // entry count, time bounds, LSN bounds
	secDict     = 2 // template dictionary + per-template index + verdicts
	secTime     = 3 // delta-varint unix-nano timestamps
	secTID      = 4 // per-entry local template index
	secSeq      = 5 // delta-varint sequence numbers
	secRows     = 6 // varint row counts
	secUsers    = 7 // user dictionary + per-entry ids
	secSessions = 8 // session dictionary + per-entry ids
	secParams   = 9 // parameter values grouped by (template, slot)
)

const (
	encRaw   = 0
	encFlate = 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// flateMin is the body size below which compression is not attempted.
const flateMin = 256

// Classification is the compactor's per-template enrichment: the engine
// fingerprint of the template's statements (internal/skeleton identity, the
// ID /report and /toplist expose) and the antipattern verdicts the engine
// holds for it at compaction time. The zero value means "unclassified" —
// offline compaction without an engine still produces a valid block.
type Classification struct {
	EngineFP uint64
	Verdicts []string
}

// Classifier enriches one template, given a representative statement.
// Called once per distinct template per block, never per entry.
type Classifier func(statement string) Classification

// template is one dictionary entry being built.
type template struct {
	skeleton string
	slots    int
	opaque   bool
	class    Classification
	count    int
	minNS    int64
	maxNS    int64
	params   [][]string // per slot, values in occurrence order
}

// blockBuilder accumulates entries and serializes them as one block.
type blockBuilder struct {
	byFP      map[uint64]int
	templates []*template
	tids      []uint32
	times     []int64
	seqs      []int64
	rows      []int64
	users     *stringDict
	sessions  *stringDict
	firstLSN  uint64
	lastLSN   uint64
	classify  Classifier
}

func newBlockBuilder(classify Classifier) *blockBuilder {
	return &blockBuilder{
		byFP:     map[uint64]int{},
		users:    newStringDict(),
		sessions: newStringDict(),
		classify: classify,
	}
}

// add appends one entry (in journal order) to the block under construction.
func (b *blockBuilder) add(e logmodel.Entry, lsn uint64) {
	if len(b.tids) == 0 {
		b.firstLSN = lsn
	}
	if lsn > b.lastLSN {
		b.lastLSN = lsn
	}
	sk, params, opaque := Split(e.Statement)
	fp := Fingerprint(sk)
	ti, ok := b.byFP[fp]
	if !ok {
		ti = len(b.templates)
		b.byFP[fp] = ti
		t := &template{
			skeleton: sk,
			slots:    len(params),
			opaque:   opaque,
			minNS:    math.MaxInt64,
			maxNS:    math.MinInt64,
			params:   make([][]string, len(params)),
		}
		if b.classify != nil {
			t.class = b.classify(e.Statement)
		}
		b.templates = append(b.templates, t)
	}
	t := b.templates[ti]
	if len(params) != t.slots {
		// Two statements whose skeletons collide but disagree on slot count
		// cannot share a template; demote this entry to an opaque singleton.
		// (Unreachable for Split's grammar — the skeleton encodes its slot
		// count — but the store must never depend on that.)
		sk, params, opaque = e.Statement, nil, true
		fp = Fingerprint(sk)
		ti, ok = b.byFP[fp]
		if !ok || b.templates[ti].slots != 0 {
			ti = len(b.templates)
			b.byFP[fp] = ti
			b.templates = append(b.templates, &template{
				skeleton: sk, opaque: opaque,
				minNS: math.MaxInt64, maxNS: math.MinInt64,
			})
		}
		t = b.templates[ti]
	}
	ns := e.Time.UnixNano()
	t.count++
	if ns < t.minNS {
		t.minNS = ns
	}
	if ns > t.maxNS {
		t.maxNS = ns
	}
	for s, p := range params {
		t.params[s] = append(t.params[s], p)
	}
	b.tids = append(b.tids, uint32(ti))
	b.times = append(b.times, ns)
	b.seqs = append(b.seqs, e.Seq)
	b.rows = append(b.rows, e.Rows)
	b.users.add(e.User)
	b.sessions.add(e.Session)
}

func (b *blockBuilder) len() int { return len(b.tids) }

// encode serializes the block to w.
func (b *blockBuilder) encode(w io.Writer) error {
	if len(b.tids) == 0 {
		return errors.New("colstore: empty block")
	}
	if _, err := w.Write(blockMagic[:]); err != nil {
		return err
	}
	var minNS, maxNS int64 = math.MaxInt64, math.MinInt64
	for _, ns := range b.times {
		if ns < minNS {
			minNS = ns
		}
		if ns > maxNS {
			maxNS = ns
		}
	}

	var buf []byte
	// secMeta
	buf = binary.AppendUvarint(buf, uint64(len(b.tids)))
	buf = binary.AppendVarint(buf, minNS)
	buf = binary.AppendVarint(buf, maxNS)
	buf = binary.AppendUvarint(buf, b.firstLSN)
	buf = binary.AppendUvarint(buf, b.lastLSN)
	if err := writeSection(w, secMeta, buf); err != nil {
		return err
	}

	// secDict: dictionary and per-template index in one read.
	buf = buf[:0]
	buf = binary.AppendUvarint(buf, uint64(len(b.templates)))
	for _, t := range b.templates {
		flags := byte(0)
		if t.opaque {
			flags |= 1
		}
		buf = append(buf, flags)
		buf = appendString(buf, t.skeleton)
		buf = binary.AppendUvarint(buf, uint64(t.slots))
		buf = binary.AppendUvarint(buf, t.class.EngineFP)
		buf = binary.AppendUvarint(buf, uint64(len(t.class.Verdicts)))
		for _, v := range t.class.Verdicts {
			buf = appendString(buf, v)
		}
		buf = binary.AppendUvarint(buf, uint64(t.count))
		buf = binary.AppendVarint(buf, t.minNS)
		buf = binary.AppendVarint(buf, t.maxNS)
	}
	if err := writeSection(w, secDict, buf); err != nil {
		return err
	}

	// secTime: absolute first, then deltas.
	buf = buf[:0]
	prev := int64(0)
	for _, ns := range b.times {
		buf = binary.AppendVarint(buf, ns-prev)
		prev = ns
	}
	if err := writeSection(w, secTime, buf); err != nil {
		return err
	}

	// secTID
	buf = buf[:0]
	for _, t := range b.tids {
		buf = binary.AppendUvarint(buf, uint64(t))
	}
	if err := writeSection(w, secTID, buf); err != nil {
		return err
	}

	// secSeq
	buf = buf[:0]
	prev = 0
	for _, s := range b.seqs {
		buf = binary.AppendVarint(buf, s-prev)
		prev = s
	}
	if err := writeSection(w, secSeq, buf); err != nil {
		return err
	}

	// secRows
	buf = buf[:0]
	for _, r := range b.rows {
		buf = binary.AppendVarint(buf, r)
	}
	if err := writeSection(w, secRows, buf); err != nil {
		return err
	}

	if err := writeSection(w, secUsers, b.users.encode(nil)); err != nil {
		return err
	}
	if err := writeSection(w, secSessions, b.sessions.encode(nil)); err != nil {
		return err
	}

	// secParams: for each template, for each slot, count values back to back.
	buf = buf[:0]
	for _, t := range b.templates {
		for _, vals := range t.params {
			for _, v := range vals {
				buf = appendString(buf, v)
			}
		}
	}
	return writeSection(w, secParams, buf)
}

// writeSection frames one section: type + encoding byte + payload, length-
// and CRC-prefixed. Large payloads are DEFLATE-compressed when that shrinks
// them.
func writeSection(w io.Writer, typ byte, payload []byte) error {
	enc := byte(encRaw)
	body := payload
	if len(payload) >= flateMin {
		var z bytes.Buffer
		fw, err := flate.NewWriter(&z, flate.BestSpeed)
		if err != nil {
			return err
		}
		if _, err := fw.Write(payload); err != nil {
			return err
		}
		if err := fw.Close(); err != nil {
			return err
		}
		if z.Len() < len(payload) {
			enc = encFlate
			body = z.Bytes()
		}
	}
	var hdr [10]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)+2))
	hdr[8] = typ
	hdr[9] = enc
	crc := crc32.Update(0, castagnoli, hdr[8:10])
	crc = crc32.Update(crc, castagnoli, body)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// stringDict is a build-side string dictionary plus the per-entry id column.
type stringDict struct {
	byVal map[string]uint32
	vals  []string
	ids   []uint32
}

func newStringDict() *stringDict {
	return &stringDict{byVal: map[string]uint32{}}
}

func (d *stringDict) add(s string) {
	id, ok := d.byVal[s]
	if !ok {
		id = uint32(len(d.vals))
		d.byVal[s] = id
		d.vals = append(d.vals, s)
	}
	d.ids = append(d.ids, id)
}

func (d *stringDict) encode(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(d.vals)))
	for _, v := range d.vals {
		buf = appendString(buf, v)
	}
	for _, id := range d.ids {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	return buf
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// writeBuiltBlock encodes a built block into path atomically
// (fsutil.WriteFileAtomic): a crash at any point leaves either no file or a
// complete valid block under the final name — never a torn one.
func writeBuiltBlock(path string, b *blockBuilder) (int64, error) {
	if b.len() == 0 {
		return 0, errors.New("colstore: no entries to compact")
	}
	var bw bytes.Buffer
	if err := b.encode(&bw); err != nil {
		return 0, err
	}
	if err := fsutil.WriteFileAtomic(path, bw.Bytes()); err != nil {
		return 0, err
	}
	return int64(bw.Len()), nil
}
