// Package journal is the ingestion daemon's write-ahead log: a segmented
// append-only journal of accepted log entries, written before an entry is
// acknowledged, so that a crashed daemon can replay exactly what it had
// promised to process. The paper's subject is a five-year continuous log
// (SkyServer); a daemon cleaning such a feed restarts many times over the
// collection window, and without a journal every restart would silently drop
// all open sessions and template aggregates — precisely the long-horizon
// state the antipattern detector needs.
//
// Format. A journal is a directory of segment files named
// wal-<firstLSN:016x>.log. Each segment is a sequence of frames:
//
//	[length uint32 LE] [crc32c uint32 LE] [lsn uint64 LE] [payload]
//
// where length counts the payload bytes and the CRC (Castagnoli) covers the
// LSN and payload. LSNs are assigned by the writer, strictly increasing
// across the whole journal, which makes truncation ("everything below the
// snapshot is disposable") a pure segment-name comparison.
//
// Durability. AppendBatch buffers; Commit flushes to the OS (surviving a killed
// process) and fsyncs according to the configured policy (surviving a killed
// machine): FsyncAlways syncs every commit, FsyncInterval syncs at most once
// per interval (a background syncer bounds the tail), FsyncNever leaves
// syncing to the OS. Segment rotation always syncs the sealed segment.
//
// Recovery. Replay streams frames in LSN order, validating CRCs. A torn
// final frame — the signature of a crash mid-write — ends the replay
// cleanly; Open truncates the torn tail before appending new frames.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sqlclean/internal/fsutil"
	"sqlclean/internal/obs"
)

// FsyncPolicy selects when Commit calls fsync.
type FsyncPolicy string

const (
	// FsyncAlways fsyncs on every Commit: no acknowledged entry is lost even
	// to a machine crash, at the cost of one disk sync per ingest request.
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval fsyncs at most once per Options.Interval (plus a
	// background syncer), bounding machine-crash loss to one interval.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncNever never fsyncs explicitly: a killed process loses nothing
	// (Commit still flushes to the page cache), a killed machine may lose
	// whatever the OS had not written back.
	FsyncNever FsyncPolicy = "never"
)

// ParseFsyncPolicy parses a -fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncAlways, FsyncInterval, FsyncNever:
		return FsyncPolicy(s), nil
	}
	return "", fmt.Errorf("journal: unknown fsync policy %q (want always, interval or never)", s)
}

const (
	frameHeader = 16 // length + crc + lsn
	segPrefix   = "wal-"
	segSuffix   = ".log"
	// DefaultSegmentBytes rotates segments at 64 MiB.
	DefaultSegmentBytes = 64 << 20
	// DefaultInterval is the FsyncInterval cadence.
	DefaultInterval = time.Second
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Writer.
type Options struct {
	// Dir is the journal directory; created if missing.
	Dir string
	// SegmentBytes rotates to a new segment once the current one exceeds
	// this size (0 selects DefaultSegmentBytes).
	SegmentBytes int64
	// Policy selects the fsync cadence (empty selects FsyncInterval).
	Policy FsyncPolicy
	// Interval is the FsyncInterval cadence (0 selects DefaultInterval).
	Interval time.Duration
	// Metrics optionally receives journal_appends_total, journal_bytes_total,
	// journal_segments, journal_rotations_total and the journal_fsync_ns
	// histogram.
	Metrics *obs.Registry
	// Logger receives structured diagnostics (torn-tail truncation on Open,
	// segment rotation, background fsync failures). Nil discards them.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.Policy == "" {
		o.Policy = FsyncInterval
	}
	if o.Interval <= 0 {
		o.Interval = DefaultInterval
	}
	if o.Logger == nil {
		o.Logger = obs.NopLogger()
	}
	return o
}

type segment struct {
	first uint64 // LSN of the segment's first frame
	path  string
}

// groupCommitBuckets are the histogram bounds for frames-per-fsync: the
// coalescing factor of the cross-request group commit.
var groupCommitBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}

// Writer appends frames to the journal. Safe for concurrent use; AppendBatch
// assigns LSNs under the writer's lock, so journal order is LSN order.
type Writer struct {
	opt Options

	mu       sync.Mutex
	f        *os.File
	bw       *bufio.Writer
	size     int64
	segs     []segment
	lastLSN  uint64
	dirty    bool // unsynced bytes since the last fsync
	lastSync time.Time
	closed   bool
	stop     chan struct{} // background syncer (FsyncInterval only)
	syncWG   sync.WaitGroup
	// encBuf is the AppendBatch entry-encoding scratch, reused across frames
	// and batches (guarded by mu): the accept path pays zero payload
	// allocations in steady state. hdr is the frame-header scratch — a local
	// array would escape (bufio.Writer.Write leaks its argument), costing one
	// allocation per frame.
	encBuf []byte
	hdr    [frameHeader]byte

	// Group-commit state (guarded by gcMu, which is only ever taken while
	// holding mu or while holding neither — mu → gcMu is the lock order).
	// syncedLSN is the highest LSN a completed fsync covers; syncing marks a
	// leader's fsync in flight. Commit callers under FsyncAlways wait on
	// gcCond until a sync — theirs or another caller's — covers their frames,
	// so concurrent commits share one fsync instead of issuing one each.
	gcMu      sync.Mutex
	gcCond    *sync.Cond
	syncedLSN uint64
	syncing   bool

	mAppends   *obs.Counter
	mBytes     *obs.Counter
	mRotations *obs.Counter
	mCommits   *obs.Counter
	gSegments  *obs.Gauge
	hFsync     *obs.Histogram
	hGroup     *obs.Histogram
}

// Open creates or reopens a journal directory for appending. A torn final
// frame left by a crash is truncated away; recovered frames stay untouched.
func Open(opt Options) (*Writer, error) {
	opt = opt.withDefaults()
	if opt.Dir == "" {
		return nil, errors.New("journal: empty directory")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(opt.Dir)
	if err != nil {
		return nil, err
	}
	w := &Writer{
		opt:      opt,
		segs:     segs,
		lastSync: time.Now(),
		stop:     make(chan struct{}),

		mAppends:   opt.Metrics.Counter("journal_appends_total"),
		mBytes:     opt.Metrics.Counter("journal_bytes_total"),
		mRotations: opt.Metrics.Counter("journal_rotations_total"),
		mCommits:   opt.Metrics.Counter("journal_commits_total"),
		gSegments:  opt.Metrics.Gauge("journal_segments"),
		hFsync:     opt.Metrics.Histogram("journal_fsync_ns", obs.DurationBucketsNS),
		hGroup:     opt.Metrics.Histogram("journal_group_commit_entries", groupCommitBuckets),
	}
	w.gcCond = sync.NewCond(&w.gcMu)
	// Find the journal's last valid LSN (frames are LSN-ordered, so the last
	// valid frame of the last segment carries it) and truncate any torn tail.
	for i := len(segs) - 1; i >= 0; i-- {
		valid, last, n, err := scanSegment(segs[i].path, 0, nil)
		if err != nil {
			return nil, err
		}
		if w.lastLSN == 0 && n > 0 {
			w.lastLSN = last
		}
		if i == len(segs)-1 {
			f, err := os.OpenFile(segs[i].path, os.O_RDWR, 0o644)
			if err != nil {
				return nil, err
			}
			if fi, statErr := f.Stat(); statErr == nil && fi.Size() > valid {
				opt.Logger.Warn("truncating torn journal tail",
					"component", "journal", "segment", filepath.Base(segs[i].path),
					"valid_bytes", valid, "torn_bytes", fi.Size()-valid)
			}
			if err := f.Truncate(valid); err != nil {
				f.Close()
				return nil, err
			}
			if _, err := f.Seek(valid, io.SeekStart); err != nil {
				f.Close()
				return nil, err
			}
			w.f = f
			w.bw = bufio.NewWriterSize(f, 1<<16)
			w.size = valid
		}
		if n > 0 {
			break
		}
	}
	// Everything recovered from disk needs no fsync from us.
	w.syncedLSN = w.lastLSN
	w.gSegments.Set(int64(len(w.segs)))
	if w.opt.Policy == FsyncInterval {
		w.syncWG.Add(1)
		go w.backgroundSync()
	}
	return w, nil
}

// LastLSN returns the LSN of the most recently appended frame (0 when the
// journal is empty).
func (w *Writer) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastLSN
}

// appendFrameLocked frames one payload into the buffered writer, rotating
// first when the segment is full. Caller holds mu and has checked closed.
func (w *Writer) appendFrameLocked(payload []byte) (uint64, error) {
	lsn := w.lastLSN + 1
	if w.f == nil || (w.size > 0 && w.size+frameHeader+int64(len(payload)) > w.opt.SegmentBytes) {
		if err := w.rotateLocked(lsn); err != nil {
			return 0, err
		}
	}
	hdr := &w.hdr
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], lsn)
	crc := crc32.Update(0, castagnoli, hdr[8:16])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return 0, err
	}
	w.size += frameHeader + int64(len(payload))
	w.lastLSN = lsn
	w.dirty = true
	w.mAppends.Inc()
	w.mBytes.Add(frameHeader + int64(len(payload)))
	return lsn, nil
}

// Commit makes every appended frame crash-durable for a killed process
// (flush to the OS) and, per the fsync policy, for a killed machine.
//
// Under FsyncAlways, concurrent commits group-commit: the caller flushes its
// frames under the writer's lock, releases it, and then waits until a
// completed fsync covers its last frame. One caller — the leader — performs
// the fsync for everyone whose frames were flushed by then; the rest return
// as soon as that sync covers their LSN. 32 concurrent clients therefore
// share a handful of fsyncs instead of issuing 32, without weakening the
// guarantee: Commit still never returns before the caller's frames are
// durable.
func (w *Writer) Commit() error {
	w.mu.Lock()
	if w.closed || w.f == nil {
		w.mu.Unlock()
		return nil
	}
	w.mCommits.Inc()
	if err := w.bw.Flush(); err != nil {
		w.mu.Unlock()
		return err
	}
	target := w.lastLSN
	switch w.opt.Policy {
	case FsyncAlways:
		w.mu.Unlock()
		return w.syncTo(target)
	case FsyncInterval:
		if time.Since(w.lastSync) >= w.opt.Interval {
			err := w.fsyncLocked()
			w.mu.Unlock()
			return err
		}
	}
	w.mu.Unlock()
	return nil
}

// syncTo blocks until a completed fsync covers target. At most one caller at
// a time — the leader — performs the fsync; followers wait on the
// group-commit condition until the leader's sync satisfies them.
func (w *Writer) syncTo(target uint64) error {
	w.gcMu.Lock()
	for {
		if w.syncedLSN >= target {
			w.gcMu.Unlock()
			return nil
		}
		if w.syncing {
			// A leader's fsync is in flight; it may or may not cover our
			// frames (they could have been appended after it captured the
			// file). Wait and re-check.
			w.gcCond.Wait()
			continue
		}
		w.syncing = true
		w.gcMu.Unlock()

		// Commit-window yield before capturing the flush horizon: runnable
		// committers get one scheduler pass to append and flush their frames,
		// so the fsync below covers them too (the same idea as PostgreSQL's
		// commit_delay, paid in one Gosched instead of a timed sleep — free
		// when nothing else is runnable). Matters most when cores are scarce:
		// followers otherwise never reach the wait queue before a fast fsync
		// completes, and every commit ends up fsyncing alone.
		runtime.Gosched()

		// Flush under mu, then fsync WITHOUT mu: while the leader's fsync
		// is in flight, other callers keep appending and flushing frames,
		// so the next leader's single fsync covers that whole window of
		// commits. Holding mu across the fsync would serialize appends
		// behind the disk and defeat the coalescing.
		w.mu.Lock()
		var err error
		closed := w.closed || w.f == nil
		var f *os.File
		var covered uint64
		doSync := false
		if !closed {
			if err = w.bw.Flush(); err == nil {
				f = w.f
				covered = w.lastLSN
				doSync = w.dirty
				// Claim the flushed tail: frames appended after this point
				// re-dirty the writer and wait for the next leader.
				w.dirty = false
			}
		}
		w.mu.Unlock()

		observe := false // covered came from a commit-path fsync
		advance := false // raise the horizon to covered
		if err == nil && !closed {
			if doSync {
				start := time.Now()
				if serr := f.Sync(); serr != nil {
					// A rotation seal or Close may have fsynced and closed
					// this segment while we held no lock; their unconditional
					// sync already made every flushed frame durable. Anything
					// else is a real fsync failure: re-dirty so the next
					// leader retries, and report it.
					w.mu.Lock()
					superseded := w.f != f || w.closed
					if !superseded {
						w.dirty = true
						err = serr
					}
					w.mu.Unlock()
					advance = superseded
				} else {
					w.hFsync.Observe(int64(time.Since(start)))
					advance, observe = true, true
				}
			} else {
				// Nothing unsynced: a previous fsync or a rotation seal
				// already covered the flushed tail.
				advance = true
			}
		}

		// Horizon advance and leadership release under one lock, with ONE
		// broadcast: satisfied followers return, unsatisfied ones race for
		// the next leadership. A separate advanceSynced would broadcast
		// twice and wake every waiter an extra time per fsync.
		w.gcMu.Lock()
		w.syncing = false
		if advance && covered > w.syncedLSN {
			if observe {
				w.hGroup.Observe(int64(covered - w.syncedLSN))
			}
			w.syncedLSN = covered
		}
		w.gcCond.Broadcast()
		if err != nil || closed {
			// Closed mirrors Commit's closed-writer contract (Close already
			// flushed and synced everything it could).
			w.gcMu.Unlock()
			return err
		}
		// Loop: the completed sync advanced syncedLSN to covered, which
		// includes target (we flushed it before calling syncTo).
	}
}

// Sync flushes and fsyncs regardless of policy.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.f == nil {
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	return w.fsyncLocked()
}

// fsyncLocked syncs the current segment (callers flush first, so every
// appended frame is on its way to the file) and advances the group-commit
// horizon to the last flushed LSN. Caller holds mu.
func (w *Writer) fsyncLocked() error {
	if w.dirty {
		start := time.Now()
		if err := w.f.Sync(); err != nil {
			return err
		}
		w.hFsync.Observe(int64(time.Since(start)))
		w.dirty = false
		w.lastSync = time.Now()
		w.advanceSynced(w.lastLSN, true)
		return nil
	}
	// Nothing unsynced: everything flushed is already durable (a previous
	// fsync, or a rotation's seal covered it), so the horizon still advances.
	w.advanceSynced(w.lastLSN, false)
	return nil
}

// advanceSynced raises the group-commit horizon and wakes commit waiters.
// observe=true marks a commit-path fsync, whose coalesced frame count feeds
// the journal_group_commit_entries histogram. Caller must not hold gcMu
// (mu is irrelevant here: the horizon is guarded by gcMu alone).
func (w *Writer) advanceSynced(lsn uint64, observe bool) {
	w.gcMu.Lock()
	if lsn > w.syncedLSN {
		if observe {
			w.hGroup.Observe(int64(lsn - w.syncedLSN))
		}
		w.syncedLSN = lsn
		w.gcCond.Broadcast()
	}
	w.gcMu.Unlock()
}

// backgroundSync bounds the unsynced tail under FsyncInterval even when no
// Commit arrives (e.g. traffic stops right after a burst).
func (w *Writer) backgroundSync() {
	defer w.syncWG.Done()
	t := time.NewTicker(w.opt.Interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.mu.Lock()
			if !w.closed && w.f != nil && w.dirty {
				err := w.bw.Flush()
				if err == nil {
					err = w.fsyncLocked()
				}
				if err != nil {
					// The tail stays dirty; the next Commit or tick retries.
					w.opt.Logger.Error("background fsync failed",
						"component", "journal", "error", err)
				}
			}
			w.mu.Unlock()
		}
	}
}

// rotateLocked seals the current segment (flush + fsync) and starts a new one
// whose first frame will be lsn.
func (w *Writer) rotateLocked(lsn uint64) error {
	if w.f != nil {
		if err := w.bw.Flush(); err != nil {
			return err
		}
		if err := w.f.Sync(); err != nil {
			return err
		}
		if err := w.f.Close(); err != nil {
			return err
		}
		w.dirty = false
		// The seal's sync made every flushed frame durable; commit waiters
		// covered by it need no further fsync. (Not observed in the
		// group-commit histogram — that tracks commit-path fsyncs only.)
		w.advanceSynced(w.lastLSN, false)
		w.mRotations.Inc()
	}
	path := filepath.Join(w.opt.Dir, segName(lsn))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := fsutil.SyncDir(w.opt.Dir); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 1<<16)
	w.size = 0
	w.segs = append(w.segs, segment{first: lsn, path: path})
	w.gSegments.Set(int64(len(w.segs)))
	w.opt.Logger.Debug("rotated journal segment",
		"component", "journal", "segment", segName(lsn), "first_lsn", lsn, "segments", len(w.segs))
	return nil
}

// TruncateBefore removes every segment whose frames all have LSN < lsn —
// the segments a snapshot at lsn-1 has made disposable. The active segment
// is never removed.
func (w *Writer) TruncateBefore(lsn uint64) (removed int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.segs) > 1 && w.segs[1].first <= lsn {
		if rmErr := os.Remove(w.segs[0].path); rmErr != nil && !os.IsNotExist(rmErr) {
			return removed, rmErr
		}
		w.segs = w.segs[1:]
		removed++
	}
	if removed > 0 {
		err = fsutil.SyncDir(w.opt.Dir)
		w.opt.Logger.Debug("truncated journal below snapshot",
			"component", "journal", "segments_removed", removed, "below_lsn", lsn)
	}
	w.gSegments.Set(int64(len(w.segs)))
	return removed, err
}

// Segments returns the number of live segment files.
func (w *Writer) Segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.segs)
}

// SealedSegmentsBelow returns the paths of every sealed segment whose frames
// all have LSN < lsn — exactly the segments TruncateBefore(lsn) would remove.
// The active segment is never included, so the returned files are immutable
// and safe to read (or compact) without holding the writer's lock.
func (w *Writer) SealedSegmentsBelow(lsn uint64) []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var paths []string
	for i := 0; i+1 < len(w.segs) && w.segs[i+1].first <= lsn; i++ {
		paths = append(paths, w.segs[i].path)
	}
	return paths
}

// ScanSegmentFile streams every valid frame of one segment file through fn
// in LSN order. A torn or corrupted tail ends the scan cleanly (the same
// tolerance Replay has); an error from fn aborts it. The frame count and
// the segment's first/last valid LSNs are returned (first==last==0 when the
// segment holds no valid frames).
func ScanSegmentFile(path string, fn func(lsn uint64, payload []byte) error) (frames int, firstLSN, lastLSN uint64, err error) {
	wrapped := func(lsn uint64, payload []byte) error {
		if frames == 0 {
			firstLSN = lsn
		}
		frames++
		if fn == nil {
			return nil
		}
		return fn(lsn, payload)
	}
	_, lastLSN, _, err = scanSegment(path, 0, wrapped)
	return frames, firstLSN, lastLSN, err
}

// Close flushes, fsyncs and closes the journal.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	close(w.stop)
	var err error
	if w.f != nil {
		if ferr := w.bw.Flush(); ferr != nil {
			err = ferr
		}
		// Sync unconditionally (not just when dirty): a group-commit leader
		// fsyncing without mu may have claimed the dirty flag without having
		// completed — or succeeded in — its fsync yet. One extra no-op fsync
		// at close is cheaper than reasoning about that race.
		if serr := w.f.Sync(); serr != nil && err == nil {
			err = serr
		}
		if cerr := w.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	w.mu.Unlock()
	w.syncWG.Wait()
	return err
}

// ReplayResult summarizes a Replay pass.
type ReplayResult struct {
	// Frames is the number of frames delivered to the callback.
	Frames int
	// Bytes is the number of journal bytes scanned.
	Bytes int64
	// Torn reports whether the last segment ended in a truncated or
	// corrupted frame (the normal signature of a crash mid-append).
	Torn bool
	// LastLSN is the highest valid LSN seen (0 when the journal is empty).
	LastLSN uint64
}

// Replay streams every frame with LSN >= from through fn, in LSN order.
// Segments entirely below from are skipped without reading. A torn or
// corrupted tail ends the replay cleanly (Torn is set); an error from fn
// aborts it.
func Replay(dir string, from uint64, fn func(lsn uint64, payload []byte) error) (ReplayResult, error) {
	var res ReplayResult
	segs, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return res, nil
		}
		return res, err
	}
	delivered := 0
	wrapped := func(lsn uint64, payload []byte) error {
		delivered++
		if fn == nil {
			return nil
		}
		return fn(lsn, payload)
	}
	for i, seg := range segs {
		// A segment is entirely below from when the next one starts at or
		// below from (frames are strictly increasing across segments).
		if i+1 < len(segs) && segs[i+1].first <= from {
			continue
		}
		valid, last, n, err := scanSegment(seg.path, from, wrapped)
		if err != nil {
			return res, err
		}
		res.Bytes += valid
		if n > 0 {
			res.LastLSN = last
		}
		if i == len(segs)-1 {
			if fi, err := os.Stat(seg.path); err == nil && fi.Size() > valid {
				res.Torn = true
			}
		}
	}
	res.Frames = delivered
	return res, nil
}

// scanSegment reads frames from one segment, calling fn (when non-nil) for
// every frame with lsn >= from. It returns the byte offset of the end of the
// last valid frame, the last valid LSN, and the number of valid frames
// scanned. A short or CRC-corrupted tail stops the scan without error, and
// so does a length longer than the bytes left in the file, before it sizes
// an allocation.
func scanSegment(path string, from uint64, fn func(lsn uint64, payload []byte) error) (valid int64, lastLSN uint64, n int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, 0, err
	}
	br := bufio.NewReaderSize(f, 1<<16)
	var hdr [frameHeader]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return valid, lastLSN, n, nil // clean EOF or torn header
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
		lsn := binary.LittleEndian.Uint64(hdr[8:16])
		if int64(length) > fi.Size()-valid-frameHeader {
			return valid, lastLSN, n, nil // torn or forged length
		}
		if int(length) > cap(payload) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			return valid, lastLSN, n, nil // torn payload
		}
		crc := crc32.Update(0, castagnoli, hdr[8:16])
		crc = crc32.Update(crc, castagnoli, payload)
		if crc != wantCRC {
			return valid, lastLSN, n, nil // corrupted frame: stop here
		}
		valid += frameHeader + int64(length)
		lastLSN = lsn
		n++
		if fn != nil && lsn >= from {
			if err := fn(lsn, payload); err != nil {
				return valid, lastLSN, n, err
			}
		}
	}
}

func segName(first uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, first, segSuffix)
}

func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		hexpart := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		first, err := strconv.ParseUint(hexpart, 16, 64)
		if err != nil {
			continue
		}
		segs = append(segs, segment{first: first, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}
