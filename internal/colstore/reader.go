// Block decoding and the store-level scan API. Reads come in two sizes:
// index reads (meta + template dictionary only — what /history and eviction
// need, no column payload is ever decompressed) and full scans that
// reconstitute logmodel entries bit-identically to the journal frames they
// were compacted from.
package colstore

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"sqlclean/internal/logmodel"
)

// BlockMeta is the index header of one block: enough to prune by time range
// or LSN without touching any column.
type BlockMeta struct {
	Path     string
	Entries  int
	MinTime  time.Time
	MaxTime  time.Time
	FirstLSN uint64
	LastLSN  uint64
	Bytes    int64
}

// Template is one dictionary entry as stored: the lexical skeleton, the
// engine identity attached at compaction time (0 when compacted offline),
// the antipattern verdicts then known, and the per-template index used for
// pruning and trend counts.
type Template struct {
	Skeleton string
	Slots    int
	Opaque   bool
	EngineFP uint64
	Verdicts []string
	Count    int
	MinTime  time.Time
	MaxTime  time.Time
}

// LexicalFP is the template's stable lexical fingerprint.
func (t Template) LexicalFP() uint64 { return Fingerprint(t.Skeleton) }

// Block is one open block file. Column sections stay compressed until asked
// for; Meta and Templates are decoded eagerly.
type Block struct {
	Meta      BlockMeta
	Templates []Template
	secs      map[byte]rawSection
}

type rawSection struct {
	enc  byte
	body []byte
}

// ErrCorrupt reports a block whose framing, CRC or section layout is
// invalid. Unlike the journal (where a torn tail is the normal crash
// signature), a block is written atomically, so any damage is real.
var ErrCorrupt = errors.New("colstore: corrupt block")

// OpenBlock reads and verifies a whole block file. Every section frame's
// CRC is checked; column payloads are kept compressed until first use.
func OpenBlock(path string) (*Block, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b, err := decodeBlock(data, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, filepath.Base(path), err)
	}
	b.Meta.Path = path
	b.Meta.Bytes = int64(len(data))
	return b, nil
}

// ReadBlockIndex reads only the meta and dictionary sections of a block —
// the cheap read behind /history pruning and store listings.
func ReadBlockIndex(path string) (*Block, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sr, err := newSectionReader(f)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, filepath.Base(path), err)
	}
	b := &Block{secs: map[byte]rawSection{}}
	for len(b.secs) < 2 {
		typ, sec, err := sr.next()
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, filepath.Base(path), err)
		}
		b.secs[typ] = sec
	}
	if err := b.decodeIndex(); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, filepath.Base(path), err)
	}
	b.Meta.Path = path
	b.Meta.Bytes = sr.size
	return b, nil
}

func decodeBlock(data []byte, _ int) (*Block, error) {
	if len(data) < len(blockMagic) || !bytes.Equal(data[:8], blockMagic[:]) {
		return nil, errors.New("bad magic")
	}
	rest := data[8:]
	b := &Block{secs: map[byte]rawSection{}}
	for len(rest) > 0 {
		if len(rest) < 8 {
			return nil, errors.New("truncated section header")
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		wantCRC := binary.LittleEndian.Uint32(rest[4:8])
		if length < 2 || int(length) > len(rest)-8 {
			return nil, errors.New("truncated section body")
		}
		body := rest[8 : 8+length]
		if crc32.Checksum(body, castagnoli) != wantCRC {
			return nil, errors.New("section CRC mismatch")
		}
		b.secs[body[0]] = rawSection{enc: body[1], body: body[2:]}
		rest = rest[8+length:]
	}
	if err := b.decodeIndex(); err != nil {
		return nil, err
	}
	return b, nil
}

// sectionReader reads the framed sections of a block file in order. It
// knows how many bytes the file has left, so a corrupt length field is
// refused before it can size an allocation.
type sectionReader struct {
	br   *bufio.Reader
	size int64 // file size
	left int64 // bytes after the read position
}

// newSectionReader checks the block magic of f and positions the reader at
// the first section.
func newSectionReader(f *os.File) (*sectionReader, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	sr := &sectionReader{br: bufio.NewReaderSize(f, 1<<16), size: fi.Size(), left: fi.Size()}
	var magic [8]byte
	if _, err := io.ReadFull(sr.br, magic[:]); err != nil || magic != blockMagic {
		return nil, errors.New("bad magic")
	}
	sr.left -= int64(len(magic))
	return sr, nil
}

// next reads one framed section.
func (sr *sectionReader) next() (byte, rawSection, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(sr.br, hdr[:]); err != nil {
		return 0, rawSection{}, errors.New("truncated section header")
	}
	sr.left -= int64(len(hdr))
	length := binary.LittleEndian.Uint32(hdr[0:4])
	wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
	if length < 2 {
		return 0, rawSection{}, errors.New("short section")
	}
	if int64(length) > sr.left {
		return 0, rawSection{}, fmt.Errorf("section length %d exceeds the %d bytes left in the file", length, sr.left)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(sr.br, body); err != nil {
		return 0, rawSection{}, errors.New("truncated section body")
	}
	sr.left -= int64(length)
	if crc32.Checksum(body, castagnoli) != wantCRC {
		return 0, rawSection{}, errors.New("section CRC mismatch")
	}
	return body[0], rawSection{enc: body[1], body: body[2:]}, nil
}

// section returns a section's decompressed payload.
func (b *Block) section(typ byte) ([]byte, error) {
	sec, ok := b.secs[typ]
	if !ok {
		return nil, fmt.Errorf("missing section %d", typ)
	}
	switch sec.enc {
	case encRaw:
		return sec.body, nil
	case encFlate:
		out, err := io.ReadAll(flate.NewReader(bytes.NewReader(sec.body)))
		if err != nil {
			return nil, fmt.Errorf("section %d: %v", typ, err)
		}
		return out, nil
	}
	return nil, fmt.Errorf("section %d: unknown encoding %d", typ, sec.enc)
}

func (b *Block) decodeIndex() error {
	meta, err := b.section(secMeta)
	if err != nil {
		return err
	}
	d := decoder{buf: meta}
	n := int(d.uvarint())
	minNS := d.varint()
	maxNS := d.varint()
	b.Meta.FirstLSN = d.uvarint()
	b.Meta.LastLSN = d.uvarint()
	if d.err != nil {
		return errors.New("bad meta section")
	}
	b.Meta.Entries = n
	b.Meta.MinTime = time.Unix(0, minNS).UTC()
	b.Meta.MaxTime = time.Unix(0, maxNS).UTC()

	dict, err := b.section(secDict)
	if err != nil {
		return err
	}
	d = decoder{buf: dict}
	nt := int(d.uvarint())
	if d.err != nil || nt < 0 || nt > n {
		return errors.New("bad dictionary count")
	}
	b.Templates = make([]Template, 0, nt)
	for i := 0; i < nt; i++ {
		flags := d.byte()
		t := Template{
			Skeleton: d.string(),
			Slots:    int(d.uvarint()),
			Opaque:   flags&1 != 0,
			EngineFP: d.uvarint(),
		}
		nv := int(d.uvarint())
		if d.err != nil || nv > len(dict) {
			return errors.New("bad dictionary entry")
		}
		for j := 0; j < nv; j++ {
			t.Verdicts = append(t.Verdicts, d.string())
		}
		t.Count = int(d.uvarint())
		t.MinTime = time.Unix(0, d.varint()).UTC()
		t.MaxTime = time.Unix(0, d.varint()).UTC()
		if d.err != nil {
			return errors.New("bad dictionary entry")
		}
		b.Templates = append(b.Templates, t)
	}
	return nil
}

// LoadColumns is Columns for a block opened index-only (ReadBlockIndex): it
// reads the time and template-ID sections from the block file on demand.
// Sections are laid out in fixed order with the trend columns right after
// the dictionary, so the read stops before any statement, user or parameter
// bytes.
func (b *Block) LoadColumns() (timesNS []int64, tids []uint32, err error) {
	_, haveTime := b.secs[secTime]
	_, haveTID := b.secs[secTID]
	if !haveTime || !haveTID {
		if err := b.loadSectionsThrough(secTID); err != nil {
			return nil, nil, err
		}
	}
	return b.Columns()
}

// loadSectionsThrough re-reads the block file, caching every section up to
// and including typ (the fixed section order makes "through" well-defined).
func (b *Block) loadSectionsThrough(typ byte) error {
	f, err := os.Open(b.Meta.Path)
	if err != nil {
		return err
	}
	defer f.Close()
	sr, err := newSectionReader(f)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorrupt, filepath.Base(b.Meta.Path), err)
	}
	for {
		t, sec, err := sr.next()
		if err != nil {
			return fmt.Errorf("%w: %s: %v", ErrCorrupt, filepath.Base(b.Meta.Path), err)
		}
		if _, ok := b.secs[t]; !ok {
			b.secs[t] = sec
		}
		if t == typ {
			return nil
		}
	}
}

// Columns decodes the time and template-ID columns — what a trend query
// consumes. No statement, user or parameter bytes are materialized.
func (b *Block) Columns() (timesNS []int64, tids []uint32, err error) {
	tsec, err := b.section(secTime)
	if err != nil {
		return nil, nil, err
	}
	d := decoder{buf: tsec}
	timesNS = make([]int64, b.Meta.Entries)
	prev := int64(0)
	for i := range timesNS {
		prev += d.varint()
		timesNS[i] = prev
	}
	isec, err := b.section(secTID)
	if err != nil {
		return nil, nil, err
	}
	d2 := decoder{buf: isec}
	tids = make([]uint32, b.Meta.Entries)
	for i := range tids {
		tids[i] = uint32(d2.uvarint())
	}
	if d.err != nil || d2.err != nil {
		return nil, nil, fmt.Errorf("%w: bad column section", ErrCorrupt)
	}
	return timesNS, tids, nil
}

// Scan fully decodes the block, calling fn for every entry in journal order
// with its original LSN. The reconstructed entries are byte-identical to
// the journal frames the block was compacted from.
func (b *Block) Scan(fn func(lsn uint64, e logmodel.Entry) error) error {
	return b.scan(nil, fn)
}

// scan is Scan with an optional per-template allow-list (indexed by the
// block-local template id; nil admits everything). Non-matching entries are
// still cursor-advanced — parameter streams are positional — but their
// statements are never joined.
func (b *Block) scan(match []bool, fn func(lsn uint64, e logmodel.Entry) error) error {
	timesNS, tids, err := b.Columns()
	if err != nil {
		return err
	}
	seqSec, err := b.section(secSeq)
	if err != nil {
		return err
	}
	rowsSec, err := b.section(secRows)
	if err != nil {
		return err
	}
	userSec, err := b.section(secUsers)
	if err != nil {
		return err
	}
	sessSec, err := b.section(secSessions)
	if err != nil {
		return err
	}
	paramSec, err := b.section(secParams)
	if err != nil {
		return err
	}

	n := b.Meta.Entries
	d := decoder{buf: seqSec}
	seqs := make([]int64, n)
	prev := int64(0)
	for i := range seqs {
		prev += d.varint()
		seqs[i] = prev
	}
	dr := decoder{buf: rowsSec}
	rows := make([]int64, n)
	for i := range rows {
		rows[i] = dr.varint()
	}
	users, userIDs, uerr := decodeStringDict(userSec, n)
	sessions, sessIDs, serr := decodeStringDict(sessSec, n)
	if d.err != nil || dr.err != nil || uerr != nil || serr != nil {
		return fmt.Errorf("%w: bad column section", ErrCorrupt)
	}

	// Parameter cursors: values are grouped by (template, slot) in entry
	// order, so each (template, slot) pair advances independently.
	dp := decoder{buf: paramSec}
	params := make([][][]string, len(b.Templates))
	for ti, t := range b.Templates {
		params[ti] = make([][]string, t.Slots)
		for s := 0; s < t.Slots; s++ {
			params[ti][s] = make([]string, 0, t.Count)
			for k := 0; k < t.Count; k++ {
				params[ti][s] = append(params[ti][s], dp.string())
			}
		}
	}
	if dp.err != nil {
		return fmt.Errorf("%w: bad params section", ErrCorrupt)
	}
	cursors := make([]int, len(b.Templates))

	scratch := make([]string, 0, 8)
	for i := 0; i < n; i++ {
		ti := int(tids[i])
		if ti >= len(b.Templates) ||
			int(userIDs[i]) >= len(users) || int(sessIDs[i]) >= len(sessions) {
			return fmt.Errorf("%w: column id out of range", ErrCorrupt)
		}
		t := &b.Templates[ti]
		if match != nil && !match[ti] {
			cursors[ti]++
			continue
		}
		stmt := t.Skeleton
		if t.Slots > 0 {
			k := cursors[ti]
			scratch = scratch[:0]
			for s := 0; s < t.Slots; s++ {
				scratch = append(scratch, params[ti][s][k])
			}
			cursors[ti] = k + 1
			stmt = Join(t.Skeleton, scratch)
		} else {
			cursors[ti]++
		}
		e := logmodel.Entry{
			Seq:       seqs[i],
			Time:      time.Unix(0, timesNS[i]).UTC(),
			User:      users[userIDs[i]],
			Session:   sessions[sessIDs[i]],
			Rows:      rows[i],
			Statement: stmt,
		}
		if err := fn(b.Meta.FirstLSN+uint64(i), e); err != nil {
			return err
		}
	}
	return nil
}

func decodeStringDict(buf []byte, n int) (vals []string, ids []uint32, err error) {
	d := decoder{buf: buf}
	nv := int(d.uvarint())
	if d.err != nil || nv < 0 || nv > len(buf)+1 {
		return nil, nil, errors.New("bad string dictionary")
	}
	vals = make([]string, 0, nv)
	for i := 0; i < nv; i++ {
		vals = append(vals, d.string())
	}
	ids = make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(d.uvarint())
	}
	if d.err != nil {
		return nil, nil, errors.New("bad string dictionary")
	}
	return vals, ids, nil
}

// decoder is a cursor over a section payload; the first error sticks.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = errors.New("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.err = errors.New("bad varint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.err = errors.New("short buffer")
		return 0
	}
	c := d.buf[d.off]
	d.off++
	return c
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.off) {
		d.err = errors.New("string overruns buffer")
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Reader is the scan API over a store directory of blocks.
type Reader struct {
	dir string
}

// NewReader opens a reader over dir. The directory need not exist yet; an
// absent directory reads as an empty store.
func NewReader(dir string) *Reader { return &Reader{dir: dir} }

// Blocks lists the store's blocks in LSN order using index-only reads.
// Corrupt blocks are skipped (reported in the returned error alongside the
// good blocks), never fatal: retention must degrade, not fail closed.
func (r *Reader) Blocks() ([]*Block, error) {
	paths, err := listBlockFiles(r.dir)
	if err != nil {
		return nil, err
	}
	var blocks []*Block
	var firstErr error
	for _, p := range paths {
		b, err := ReadBlockIndex(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		blocks = append(blocks, b)
	}
	return blocks, firstErr
}

// ScanOptions filter a store scan. Zero From/To mean unbounded; an empty
// Templates set matches every template. A template matches when the filter
// contains either its engine fingerprint or its lexical fingerprint.
type ScanOptions struct {
	From      time.Time
	To        time.Time
	Templates map[uint64]bool
}

func (o ScanOptions) matchTemplate(t Template) bool {
	if len(o.Templates) == 0 {
		return true
	}
	if t.EngineFP != 0 && o.Templates[t.EngineFP] {
		return true
	}
	return o.Templates[t.LexicalFP()]
}

func (o ScanOptions) pruneBlock(minT, maxT time.Time) bool {
	if !o.From.IsZero() && maxT.Before(o.From) {
		return true
	}
	if !o.To.IsZero() && minT.After(o.To) {
		return true
	}
	return false
}

// Scan streams matching entries from every block, in LSN order, through fn.
// Blocks (and templates, via the per-template time index) outside the
// filter are pruned without decoding their columns.
func (r *Reader) Scan(opts ScanOptions, fn func(lsn uint64, e logmodel.Entry) error) error {
	paths, err := listBlockFiles(r.dir)
	if err != nil {
		return err
	}
	for _, p := range paths {
		idx, err := ReadBlockIndex(p)
		if err != nil {
			return err
		}
		if opts.pruneBlock(idx.Meta.MinTime, idx.Meta.MaxTime) {
			continue
		}
		match := make([]bool, len(idx.Templates))
		anyTemplate := false
		for ti, t := range idx.Templates {
			if opts.matchTemplate(t) && !opts.pruneBlock(t.MinTime, t.MaxTime) {
				match[ti] = true
				anyTemplate = true
			}
		}
		if !anyTemplate {
			continue
		}
		b, err := OpenBlock(p)
		if err != nil {
			return err
		}
		err = b.scan(match, func(lsn uint64, e logmodel.Entry) error {
			if !opts.From.IsZero() && e.Time.Before(opts.From) {
				return nil
			}
			if !opts.To.IsZero() && e.Time.After(opts.To) {
				return nil
			}
			return fn(lsn, e)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// listBlockFiles returns block paths sorted by first LSN.
func listBlockFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	type entry struct {
		first uint64
		path  string
	}
	var list []entry
	for _, ent := range ents {
		first, _, ok := parseBlockName(ent.Name())
		if !ok || ent.IsDir() {
			continue
		}
		list = append(list, entry{first: first, path: filepath.Join(dir, ent.Name())})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].first < list[j].first })
	paths := make([]string, len(list))
	for i, e := range list {
		paths[i] = e.path
	}
	return paths, nil
}

const (
	blockPrefix = "blk-"
	blockSuffix = ".col"
)

// BlockName names the block compacted from the segment spanning
// [firstLSN, lastLSN]. The name is a pure function of the LSN range, which
// is what makes re-compaction after a crash idempotent.
func BlockName(firstLSN, lastLSN uint64) string {
	return fmt.Sprintf("%s%016x-%016x%s", blockPrefix, firstLSN, lastLSN, blockSuffix)
}

func parseBlockName(name string) (first, last uint64, ok bool) {
	if !strings.HasPrefix(name, blockPrefix) || !strings.HasSuffix(name, blockSuffix) {
		return 0, 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, blockPrefix), blockSuffix)
	parts := strings.SplitN(mid, "-", 2)
	if len(parts) != 2 {
		return 0, 0, false
	}
	first, err1 := strconv.ParseUint(parts[0], 16, 64)
	last, err2 := strconv.ParseUint(parts[1], 16, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return first, last, true
}
