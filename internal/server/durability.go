// Durability: the daemon's crash-recovery layer. The design is the WAL +
// checkpoint + replay triad every production ingest stack converges on:
//
//   - every accepted entry is framed into a write-ahead journal
//     (internal/journal) before its request is acknowledged (enqueue
//     appends, handleIngest group-commits once per request);
//   - a periodic + on-drain snapshot serializes the engine (stream
//     snapshot/restore: merged stats, open sessions, dedup windows,
//     template aggregates, watermarks) at a known journal position and
//     truncates the journal behind it;
//   - startup restores the newest snapshot and replays the journal's tail
//     through the sharded engine, in journal order, before any HTTP traffic
//     is admitted.
//
// Consistency between a snapshot and its journal position is enforced by a
// short enqueue freeze: takeSnapshot blocks new enqueues (enqMu), waits for
// the pending count to drain to zero (every journaled frame applied), and
// only then records the LSN and captures state — serialization happens
// inside the freeze, file I/O outside the hot path's way. Shard routing is
// deterministic across processes (stream.ShardFor), so replayed entries and
// restored per-shard state land on the shards that produced them.
//
// Emit semantics across a crash are at-least-once: sessions closed after
// the last snapshot are re-emitted during replay.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"sqlclean/internal/colstore"
	"sqlclean/internal/core"
	"sqlclean/internal/fsutil"
	"sqlclean/internal/journal"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/stream"
)

// snapshotFile is the on-disk checkpoint: the engine state plus the journal
// position it covers and the next ingest sequence number.
type snapshotFile struct {
	Version int `json:"version"`
	// AppliedLSN: every journal frame with LSN <= AppliedLSN is reflected
	// in Engine; replay starts at AppliedLSN+1.
	AppliedLSN uint64 `json:"applied_lsn"`
	// NextSeq resumes the global arrival sequence.
	NextSeq int64                  `json:"next_seq"`
	Engine  stream.ShardedSnapshot `json:"engine"`
}

const (
	snapshotVersion = 1
	snapPrefix      = "snapshot-"
	snapSuffix      = ".json"
)

func snapshotName(lsn uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, lsn, snapSuffix)
}

// openDurability restores the newest snapshot, replays the journal tail and
// opens the journal for appending. Called by New before drain goroutines
// start, so replay applies to the engine single-threaded, in journal order.
func (s *Server) openDurability() error {
	dir := s.cfg.DataDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("server: data dir: %w", err)
	}
	applied, err := s.restoreSnapshot(dir)
	if err != nil {
		return err
	}
	if applied > 0 {
		s.log.Info("restored snapshot",
			"component", "server", "data_dir", dir, "applied_lsn", applied,
			"open_sessions", s.eng.OpenSessions())
	}
	res, err := journal.Replay(dir, applied+1, func(_ uint64, payload []byte) error {
		e, err := journal.DecodeEntry(payload)
		if err != nil {
			// A decoded-but-corrupt frame passed its CRC, so this is a
			// version mismatch or a bug, not bit rot: stop rather than
			// misattribute entries.
			return err
		}
		if e.Seq >= s.seq.Load() {
			s.seq.Store(e.Seq + 1)
		}
		out, aerr := s.eng.AddShardParsed(s.eng.ShardFor(e.User), e)
		if aerr != nil {
			// The original run rejected this entry too (ordering contract
			// or skew guard); count and continue like drain does.
			s.mReplayRej.Inc()
			return nil
		}
		s.replayed++
		s.mReplayed.Inc()
		s.emit(out)
		return nil
	})
	if err != nil {
		return fmt.Errorf("server: journal replay: %w", err)
	}
	if res.Frames > 0 || res.Torn {
		s.log.Info("journal replay complete",
			"component", "server", "frames", res.Frames, "entries_applied", s.replayed,
			"bytes", res.Bytes, "torn_tail", res.Torn, "last_lsn", res.LastLSN)
	}
	jw, err := journal.Open(journal.Options{
		Dir:          dir,
		SegmentBytes: s.cfg.SegmentBytes,
		Policy:       s.cfg.Fsync,
		Interval:     s.cfg.FsyncInterval,
		Metrics:      s.reg,
		Logger:       s.log,
	})
	if err != nil {
		return fmt.Errorf("server: open journal: %w", err)
	}
	s.jw = jw
	if s.cfg.Retain {
		retainDir := s.cfg.RetainDir
		if retainDir == "" {
			retainDir = filepath.Join(dir, "colstore")
		}
		st, err := colstore.Open(colstore.Options{
			Dir:      retainDir,
			MaxBytes: s.cfg.RetainMaxBytes,
			Metrics:  s.reg,
			Logger:   s.log,
		})
		if err != nil {
			return fmt.Errorf("server: open retention store: %w", err)
		}
		s.store = st
		blocks, bytes := st.Stats()
		s.log.Info("retention store open",
			"component", "server", "retain_dir", retainDir,
			"blocks", blocks, "bytes", bytes, "max_bytes", s.cfg.RetainMaxBytes)
	}
	return nil
}

// restoreSnapshot loads the newest readable snapshot into the engine and
// returns the journal position it covers (0 when starting empty).
func (s *Server) restoreSnapshot(dir string) (uint64, error) {
	names, err := listSnapshots(dir)
	if err != nil {
		return 0, err
	}
	// Newest first; fall back past unreadable files (e.g. a torn write that
	// never got renamed would not be listed, but be defensive anyway).
	for i := len(names) - 1; i >= 0; i-- {
		blob, err := os.ReadFile(filepath.Join(dir, names[i]))
		if err != nil {
			continue
		}
		var sf snapshotFile
		if err := json.Unmarshal(blob, &sf); err != nil || sf.Version != snapshotVersion {
			continue
		}
		if err := s.eng.Restore(sf.Engine); err != nil {
			// A shard-count mismatch is an operator error, not a reason to
			// silently drop months of state.
			return 0, fmt.Errorf("server: restore %s: %w", names[i], err)
		}
		s.seq.Store(sf.NextSeq)
		s.gSnapshotLSN.Set(int64(sf.AppliedLSN))
		// The restored file's mtime anchors snapshot age across restarts.
		if fi, err := os.Stat(filepath.Join(dir, names[i])); err == nil {
			s.lastSnapshotNS.Store(fi.ModTime().UnixNano())
		}
		return sf.AppliedLSN, nil
	}
	return 0, nil
}

// snapshotLoop checkpoints every Config.SnapshotInterval until Close.
func (s *Server) snapshotLoop() {
	defer s.snapWG.Done()
	t := time.NewTicker(s.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-s.snapStop:
			return
		case <-t.C:
			if err := s.takeSnapshot(30 * time.Second); err != nil {
				s.mSnapshotErrs.Inc()
				s.log.Error("periodic snapshot failed", "component", "server", "error", err)
			}
		}
	}
}

// takeSnapshot checkpoints the engine at a consistent journal position: it
// freezes enqueues, waits (bounded) for every journaled frame to be applied,
// serializes the engine state, releases the freeze, then writes the file and
// truncates the journal outside the freeze.
func (s *Server) takeSnapshot(quiesce time.Duration) error {
	if s.jw == nil {
		return nil
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()

	s.enqMu.Lock()
	deadline := time.Now().Add(quiesce)
	for s.pending.Load() != 0 {
		if time.Now().After(deadline) {
			s.enqMu.Unlock()
			return errors.New("server: snapshot: queues did not quiesce (drain stalled?)")
		}
		time.Sleep(200 * time.Microsecond)
	}
	lsn := s.jw.LastLSN()
	nextSeq := s.seq.Load()
	snap := s.eng.Snapshot()
	s.enqMu.Unlock()

	return s.writeSnapshot(snapshotFile{
		Version:    snapshotVersion,
		AppliedLSN: lsn,
		NextSeq:    nextSeq,
		Engine:     snap,
	})
}

// finalSnapshot runs at the end of a graceful drain, when the engine is
// already quiescent by construction (queues closed, drains joined).
func (s *Server) finalSnapshot() error {
	if s.jw == nil {
		return nil
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.writeSnapshot(snapshotFile{
		Version:    snapshotVersion,
		AppliedLSN: s.jw.LastLSN(),
		NextSeq:    s.seq.Load(),
		Engine:     s.eng.Snapshot(),
	})
}

// writeSnapshot persists one checkpoint atomically (fsutil.WriteFileAtomic),
// prunes older snapshots and truncates the journal behind it.
func (s *Server) writeSnapshot(sf snapshotFile) error {
	blob, err := json.Marshal(sf)
	if err != nil {
		return fmt.Errorf("server: marshal snapshot: %w", err)
	}
	dir := s.cfg.DataDir
	if err := fsutil.WriteFileAtomic(filepath.Join(dir, snapshotName(sf.AppliedLSN)), blob); err != nil {
		return err
	}
	// Older snapshots and fully-covered journal segments are now garbage.
	if names, err := listSnapshots(dir); err == nil {
		for _, name := range names {
			if name != snapshotName(sf.AppliedLSN) {
				os.Remove(filepath.Join(dir, name))
			}
		}
	}
	// With retention on, every disposable segment is compacted into the
	// columnar store before the journal deletes it. A failed compaction
	// retains the failed segment and everything after it (truncation stops
	// short) — the entries stay in the WAL and the next snapshot retries.
	truncBelow := sf.AppliedLSN + 1
	if s.store != nil {
		classify := s.colstoreClassifier()
		for _, seg := range s.jw.SealedSegmentsBelow(truncBelow) {
			if _, cerr := s.store.CompactSegment(seg, classify); cerr != nil {
				s.log.Error("segment compaction failed, retaining journal segment",
					"component", "server", "segment", filepath.Base(seg), "error", cerr)
				truncBelow = segmentFirstLSN(seg)
				break
			}
		}
	}
	if truncBelow > 0 {
		if _, err := s.jw.TruncateBefore(truncBelow); err != nil {
			return fmt.Errorf("server: truncate journal: %w", err)
		}
	}
	s.mSnapshots.Inc()
	s.gSnapshotLSN.Set(int64(sf.AppliedLSN))
	s.lastSnapshotNS.Store(time.Now().UnixNano())
	s.log.Debug("snapshot written",
		"component", "server", "applied_lsn", sf.AppliedLSN, "bytes", len(blob))
	return nil
}

// closeDurability writes the final checkpoint and closes the journal; called
// at the end of a graceful drain.
func (s *Server) closeDurability() {
	if s.jw == nil {
		return
	}
	if err := s.finalSnapshot(); err != nil {
		s.mSnapshotErrs.Inc()
		s.log.Error("final snapshot failed", "component", "server", "error", err)
	}
	_ = s.jw.Close()
}

// segmentFirstLSN parses a segment file's first LSN out of its
// wal-<hex>.log name; 0 (truncate nothing) when the name is unparsable.
func segmentFirstLSN(path string) uint64 {
	name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "wal-"), ".log")
	lsn, err := strconv.ParseUint(name, 16, 64)
	if err != nil {
		return 0
	}
	return lsn
}

// colstoreClassifier captures one engine view for a compaction round: the
// live antipattern verdicts per template plus the streaming export's SWS
// verdicts, keyed by engine fingerprint. Each distinct lexical template
// costs one parse of a representative statement — literals are masked the
// same way in both identities, so one representative suffices.
func (s *Server) colstoreClassifier() colstore.Classifier {
	kinds := s.eng.TemplateKinds()
	sws := map[uint64]bool{}
	for _, t := range core.ExportStream(s.eng).Templates {
		if t.SWS {
			sws[t.Fingerprint] = true
		}
	}
	parser := s.cfg.Stream.Parser
	return func(stmt string) colstore.Classification {
		pe := parser.ParseEntry(logmodel.Entry{Statement: stmt})
		if pe.Info == nil {
			return colstore.Classification{}
		}
		fp := pe.Info.Fingerprint
		c := colstore.Classification{EngineFP: fp, Verdicts: kinds[fp]}
		if sws[fp] {
			c.Verdicts = append(append([]string(nil), c.Verdicts...), "sws")
		}
		return c
	}
}

// listSnapshots returns snapshot file names sorted by LSN ascending.
func listSnapshots(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		if _, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix), 16, 64); err != nil {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}
