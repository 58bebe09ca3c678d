// Store: the on-disk collection of blocks plus the compaction and eviction
// lifecycle. The daemon owns one Store per data directory; every snapshot
// compacts the WAL segments the snapshot made disposable into blocks here,
// and the size cap evicts oldest blocks first — retention degrades from the
// far end of history, never the near end.
package colstore

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"sqlclean/internal/journal"
	"sqlclean/internal/obs"
)

// Options configures a Store.
type Options struct {
	// Dir is the block directory; created if missing.
	Dir string
	// MaxBytes caps the store's total block bytes; oldest blocks are evicted
	// when a compaction pushes the total over. 0 means unlimited.
	MaxBytes int64
	// Metrics optionally receives colstore_blocks, colstore_bytes,
	// colstore_compactions_total, colstore_entries_total,
	// colstore_evictions_total and colstore_errors_total.
	Metrics *obs.Registry
	// Logger receives structured diagnostics. Nil discards them.
	Logger *slog.Logger
}

type blockRef struct {
	first uint64
	last  uint64
	path  string
	size  int64
}

// Store manages the block directory. Safe for concurrent use.
type Store struct {
	opt Options

	mu     sync.Mutex
	blocks []blockRef // sorted by first LSN
	bytes  int64

	mCompactions *obs.Counter
	mEntries     *obs.Counter
	mEvictions   *obs.Counter
	mErrors      *obs.Counter
	gBlocks      *obs.Gauge
	gBytes       *obs.Gauge
}

// Open creates or reopens a store directory, adopting any blocks already in
// it (a restarted daemon continues the same history).
func Open(opt Options) (*Store, error) {
	if opt.Dir == "" {
		return nil, fmt.Errorf("colstore: empty directory")
	}
	if opt.Logger == nil {
		opt.Logger = obs.NopLogger()
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		opt: opt,

		mCompactions: opt.Metrics.Counter("colstore_compactions_total"),
		mEntries:     opt.Metrics.Counter("colstore_entries_total"),
		mEvictions:   opt.Metrics.Counter("colstore_evictions_total"),
		mErrors:      opt.Metrics.Counter("colstore_errors_total"),
		gBlocks:      opt.Metrics.Gauge("colstore_blocks"),
		gBytes:       opt.Metrics.Gauge("colstore_bytes"),
	}
	ents, err := os.ReadDir(opt.Dir)
	if err != nil {
		return nil, err
	}
	for _, ent := range ents {
		first, last, ok := parseBlockName(ent.Name())
		if !ok || ent.IsDir() {
			// Sweep a tmp file left by a crash mid-write; the segment it was
			// compacting still exists, so nothing is lost.
			if filepath.Ext(ent.Name()) == ".tmp" {
				os.Remove(filepath.Join(opt.Dir, ent.Name()))
			}
			continue
		}
		fi, err := ent.Info()
		if err != nil {
			continue
		}
		s.blocks = append(s.blocks, blockRef{
			first: first, last: last,
			path: filepath.Join(opt.Dir, ent.Name()), size: fi.Size(),
		})
		s.bytes += fi.Size()
	}
	sort.Slice(s.blocks, func(i, j int) bool { return s.blocks[i].first < s.blocks[j].first })
	s.gBlocks.Set(int64(len(s.blocks)))
	s.gBytes.Set(s.bytes)
	return s, nil
}

// Dir returns the store's block directory.
func (s *Store) Dir() string { return s.opt.Dir }

// Reader returns a scan API over the store's directory.
func (s *Store) Reader() *Reader { return NewReader(s.opt.Dir) }

// Stats returns the current block count and total block bytes.
func (s *Store) Stats() (blocks int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blocks), s.bytes
}

// CompactSegment compacts one sealed journal segment into a block, then
// applies the size cap. It is idempotent: if the segment's block already
// exists (a crash between block rename and segment removal), the write is
// skipped and the existing block is adopted. The segment file itself is NOT
// removed — the caller deletes it (journal.TruncateBefore) only after this
// returns, so a crash anywhere leaves the entries in at least one of the
// two files. An empty or fully-torn segment compacts to nothing.
func (s *Store) CompactSegment(segPath string, classify Classifier) (entries int, err error) {
	b := newBlockBuilder(classify)
	frames, firstLSN, lastLSN, err := journal.ScanSegmentFile(segPath, func(lsn uint64, payload []byte) error {
		e, err := journal.DecodeEntry(payload)
		if err != nil {
			return fmt.Errorf("colstore: segment %s lsn %d: %w", filepath.Base(segPath), lsn, err)
		}
		b.add(e, lsn)
		return nil
	})
	if err != nil {
		s.mErrors.Inc()
		return 0, err
	}
	if frames == 0 {
		return 0, nil
	}
	// Scan reconstructs per-entry LSNs as firstLSN+i, which relies on the
	// writer's dense LSN assignment; refuse a segment that violates it.
	if lastLSN != firstLSN+uint64(frames)-1 {
		s.mErrors.Inc()
		return 0, fmt.Errorf("colstore: segment %s has non-dense LSNs [%d,%d] over %d frames",
			filepath.Base(segPath), firstLSN, lastLSN, frames)
	}
	path := filepath.Join(s.opt.Dir, BlockName(firstLSN, lastLSN))

	s.mu.Lock()
	defer s.mu.Unlock()
	if fi, statErr := os.Stat(path); statErr == nil {
		s.opt.Logger.Debug("block already compacted, skipping",
			"component", "colstore", "block", filepath.Base(path))
		s.adoptLocked(blockRef{first: firstLSN, last: lastLSN, path: path, size: fi.Size()})
		s.evictLocked()
		return frames, nil
	}
	size, err := writeBuiltBlock(path, b)
	if err != nil {
		s.mErrors.Inc()
		return 0, err
	}
	s.adoptLocked(blockRef{first: firstLSN, last: lastLSN, path: path, size: size})
	s.mCompactions.Inc()
	s.mEntries.Add(int64(frames))
	s.opt.Logger.Info("compacted journal segment",
		"component", "colstore", "segment", filepath.Base(segPath),
		"block", filepath.Base(path), "entries", frames, "bytes", size)
	s.evictLocked()
	return frames, nil
}

// CompactWALDir compacts every sealed segment of a journal directory (all
// but the newest, which the writer may still be appending to — pass
// includeActive to take that one too, e.g. for offline compaction of a cold
// WAL). Returns total entries compacted. Segment files are left in place.
func (s *Store) CompactWALDir(walDir string, includeActive bool, classify Classifier) (entries int, err error) {
	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
	if err != nil {
		return 0, err
	}
	sort.Strings(segs) // fixed-width hex names sort in LSN order
	if !includeActive && len(segs) > 0 {
		segs = segs[:len(segs)-1]
	}
	for _, seg := range segs {
		n, err := s.CompactSegment(seg, classify)
		if err != nil {
			return entries, err
		}
		entries += n
	}
	return entries, nil
}

// adoptLocked inserts a block ref in LSN order (idempotent on path).
func (s *Store) adoptLocked(ref blockRef) {
	for _, b := range s.blocks {
		if b.path == ref.path {
			return
		}
	}
	s.blocks = append(s.blocks, ref)
	sort.Slice(s.blocks, func(i, j int) bool { return s.blocks[i].first < s.blocks[j].first })
	s.bytes += ref.size
	s.gBlocks.Set(int64(len(s.blocks)))
	s.gBytes.Set(s.bytes)
}

// evictLocked removes oldest blocks while the store exceeds its cap.
func (s *Store) evictLocked() {
	if s.opt.MaxBytes <= 0 {
		return
	}
	for s.bytes > s.opt.MaxBytes && len(s.blocks) > 0 {
		victim := s.blocks[0]
		if err := os.Remove(victim.path); err != nil && !os.IsNotExist(err) {
			s.mErrors.Inc()
			s.opt.Logger.Error("block eviction failed",
				"component", "colstore", "block", filepath.Base(victim.path), "error", err)
			return
		}
		s.blocks = s.blocks[1:]
		s.bytes -= victim.size
		s.mEvictions.Inc()
		s.opt.Logger.Info("evicted oldest block",
			"component", "colstore", "block", filepath.Base(victim.path),
			"bytes_freed", victim.size, "bytes_now", s.bytes)
	}
	s.gBlocks.Set(int64(len(s.blocks)))
	s.gBytes.Set(s.bytes)
}
