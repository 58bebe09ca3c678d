package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"sqlclean/internal/logmodel"
	"sqlclean/internal/obs"
)

// textEntry is a journal entry carrying just a statement text.
func textEntry(text string) logmodel.Entry {
	return logmodel.Entry{Time: time.Unix(1060000000, 0).UTC(), Statement: text}
}

// appendText appends one entry carrying text with a single-entry AppendBatch.
func appendText(t *testing.T, w *Writer, text string) {
	t.Helper()
	if _, _, err := w.AppendBatch([]logmodel.Entry{textEntry(text)}); err != nil {
		t.Fatal(err)
	}
}

func appendN(t *testing.T, w *Writer, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		appendText(t, w, fmt.Sprintf("payload-%04d", i))
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

// replayAll replays the journal into "lsn:statement" lines.
func replayAll(t *testing.T, dir string, from uint64) ([]string, ReplayResult) {
	t.Helper()
	var got []string
	res, err := Replay(dir, from, func(lsn uint64, payload []byte) error {
		e, err := DecodeEntry(payload)
		if err != nil {
			return err
		}
		got = append(got, fmt.Sprintf("%d:%s", lsn, e.Statement))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, res
}

// TestAppendReplayRoundTrip pins the basic WAL contract: everything appended
// and committed comes back, in LSN order, with LSNs 1..n.
func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 10)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, res := replayAll(t, dir, 0)
	if len(got) != 10 || res.Frames != 10 || res.Torn || res.LastLSN != 10 {
		t.Fatalf("replay: %d frames, %+v", len(got), res)
	}
	for i, g := range got {
		want := fmt.Sprintf("%d:payload-%04d", i+1, i)
		if g != want {
			t.Fatalf("frame %d: got %q want %q", i, g, want)
		}
	}
}

// TestReopenContinuesLSNs pins crash-free restart: a reopened journal keeps
// assigning LSNs after the old tail.
func TestReopenContinuesLSNs(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 5)
	w.Close()

	w, err = Open(Options{Dir: dir, Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if w.LastLSN() != 5 {
		t.Fatalf("reopened LastLSN = %d, want 5", w.LastLSN())
	}
	appendN(t, w, 5, 5)
	w.Close()

	got, _ := replayAll(t, dir, 0)
	if len(got) != 10 {
		t.Fatalf("replayed %d frames, want 10", len(got))
	}
}

// TestTornTail pins crash recovery: a truncated final frame is dropped by
// Replay (Torn set) and truncated away on reopen, after which appends resume.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 4)
	w.Close()

	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	fi, _ := os.Stat(segs[0].path)
	if err := os.Truncate(segs[0].path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	got, res := replayAll(t, dir, 0)
	if len(got) != 3 || !res.Torn {
		t.Fatalf("after tear: %d frames, torn=%v", len(got), res.Torn)
	}

	w, err = Open(Options{Dir: dir, Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if w.LastLSN() != 3 {
		t.Fatalf("LastLSN after tear = %d, want 3", w.LastLSN())
	}
	appendN(t, w, 100, 1)
	w.Close()
	got, res = replayAll(t, dir, 0)
	if len(got) != 4 || res.Torn {
		t.Fatalf("after reopen+append: %d frames, torn=%v", len(got), res.Torn)
	}
	if got[3] != "4:payload-0100" {
		t.Fatalf("resumed frame = %q", got[3])
	}
}

// TestCorruptedFrameStopsReplay pins the CRC check: a flipped payload byte
// ends the replay at the last intact frame instead of delivering garbage.
func TestCorruptedFrameStopsReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 3)
	w.Close()

	segs, _ := listSegments(dir)
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle frame's payload.
	frame := frameHeader + len(EncodeEntry(nil, textEntry("payload-0000")))
	data[frame+frameHeader+3] ^= 0xff
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, res := replayAll(t, dir, 0)
	if len(got) != 1 || !res.Torn {
		t.Fatalf("after corruption: %d frames (want 1), torn=%v", len(got), res.Torn)
	}
}

// TestForgedLengthIsTorn forges the second frame's length field to 4 GiB:
// Replay and Open must treat it as a torn tail after the first frame,
// without sizing an allocation by it.
func TestForgedLengthIsTorn(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 2)
	w.Close()
	segs, _ := listSegments(dir)
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	frame := frameHeader + len(EncodeEntry(nil, textEntry("payload-0000")))
	binary.LittleEndian.PutUint32(data[frame:], math.MaxUint32)
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	got, res := replayAll(t, dir, 0)
	w, err = Open(Options{Dir: dir, Policy: FsyncNever})
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 1<<20 {
		t.Errorf("Replay and Open allocated %d bytes", alloc)
	}
	if len(got) != 1 || !res.Torn {
		t.Errorf("replay: %d frames (want 1), torn=%v", len(got), res.Torn)
	}
	if w.LastLSN() != 1 {
		t.Errorf("LastLSN = %d, want 1", w.LastLSN())
	}
}

// TestRotationAndTruncate pins segment rotation and snapshot truncation:
// small segments rotate on size, TruncateBefore removes exactly the segments
// a snapshot made disposable, and replay from the snapshot LSN still works.
func TestRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SegmentBytes: 128, Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 40)
	if w.Segments() < 3 {
		t.Fatalf("expected rotation, got %d segments", w.Segments())
	}

	// Snapshot at LSN 20: frames 1..20 are disposable.
	removed, err := w.TruncateBefore(21)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("TruncateBefore removed nothing")
	}
	got, _ := replayAll(t, dir, 21)
	if len(got) != 20 {
		t.Fatalf("replay from 21: %d frames, want 20", len(got))
	}
	if got[0] != "21:payload-0020" {
		t.Fatalf("first replayed frame = %q", got[0])
	}
	// Frames below the truncation point may survive (their segment also
	// holds live frames) but must never resurface in a filtered replay.
	for _, g := range got {
		var lsn uint64
		fmt.Sscanf(g, "%d:", &lsn)
		if lsn < 21 {
			t.Fatalf("replay delivered pre-snapshot frame %q", g)
		}
	}
	w.Close()
}

// TestReplayEmptyAndMissingDir pins the fresh-start path.
func TestReplayEmptyAndMissingDir(t *testing.T) {
	got, res := replayAll(t, filepath.Join(t.TempDir(), "nope"), 0)
	if len(got) != 0 || res.Frames != 0 || res.Torn {
		t.Fatalf("missing dir: %+v", res)
	}
}

// TestFsyncPolicies exercises the three policies end to end (correctness
// only; durability against machine crash is not testable here).
func TestFsyncPolicies(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(string(p), func(t *testing.T) {
			dir := t.TempDir()
			reg := obs.NewRegistry()
			w, err := Open(Options{Dir: dir, Policy: p, Interval: 10 * time.Millisecond, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, w, 0, 5)
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			w.Close()
			got, _ := replayAll(t, dir, 0)
			if len(got) != 5 {
				t.Fatalf("%s: replayed %d frames, want 5", p, len(got))
			}
			snap := reg.Snapshot()
			if snap.Counters["journal_appends_total"] != 5 {
				t.Fatalf("%s: appends metric = %d", p, snap.Counters["journal_appends_total"])
			}
		})
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("ParseFsyncPolicy accepted a bogus policy")
	}
	if p, err := ParseFsyncPolicy("always"); err != nil || p != FsyncAlways {
		t.Errorf("ParseFsyncPolicy(always) = %v, %v", p, err)
	}
}

// TestIntervalLeavesFsyncToSyncer: under FsyncInterval no Commit fsyncs —
// with an hour's interval, none happens across commits — and the background
// syncer alone makes committed frames durable within a few ticks of a short
// interval.
func TestIntervalLeavesFsyncToSyncer(t *testing.T) {
	fsyncs := func(reg *obs.Registry) int64 { return reg.Snapshot().Histograms["journal_fsync_ns"].Count }

	reg := obs.NewRegistry()
	w, err := Open(Options{Dir: t.TempDir(), Policy: FsyncInterval, Interval: time.Hour, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		appendN(t, w, 5*i, 5)
	}
	if n := fsyncs(reg); n != 0 {
		t.Errorf("10 commits under a 1h interval fsynced %d times, want 0", n)
	}
	w.Close()

	reg = obs.NewRegistry()
	w, err = Open(Options{Dir: t.TempDir(), Policy: FsyncInterval, Interval: 5 * time.Millisecond, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 0, 5)
	synced := func() uint64 {
		w.gcMu.Lock()
		defer w.gcMu.Unlock()
		return w.syncedLSN
	}
	for deadline := time.Now().Add(10 * time.Second); synced() < 5; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("background syncer covered LSN %d of 5 after 10s of 5ms ticks", synced())
		}
	}
	if n := fsyncs(reg); n == 0 {
		t.Error("committed frames became durable without an fsync")
	}
}

// TestGroupCommitCoalesces pins the leader/follower protocol in its most
// deterministic configuration: all frames are appended first, then many
// commits race. Every caller targets the same LSN, so exactly one becomes the
// leader and fsyncs once; the rest are satisfied by that sync. The group
// histogram must record a single commit-path fsync covering all frames.
func TestGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	w, err := Open(Options{Dir: dir, Policy: FsyncAlways, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	const frames, commits = 100, 10
	for i := 0; i < frames; i++ {
		appendText(t, w, fmt.Sprintf("gc-%04d", i))
	}
	var wg sync.WaitGroup
	errs := make([]error, commits)
	for i := 0; i < commits; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Commit()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["journal_commits_total"]; got != commits {
		t.Errorf("journal_commits_total = %d, want %d", got, commits)
	}
	if fs := snap.Histograms["journal_fsync_ns"]; fs.Count != 1 {
		t.Errorf("fsyncs = %d, want 1 (group commit should coalesce)", fs.Count)
	}
	gc := snap.Histograms["journal_group_commit_entries"]
	if gc.Count != 1 || gc.Sum != frames {
		t.Errorf("group histogram count=%d sum=%d, want 1 fsync covering %d frames", gc.Count, gc.Sum, frames)
	}
	w.Close()
}

// TestGroupCommitConcurrentAppendCommit hammers the realistic shape — each
// goroutine appends its own frame then commits, like concurrent ingest
// requests — and pins the durability contract (every committed frame replays)
// plus the coalescing direction (never more fsyncs than commits).
func TestGroupCommitConcurrentAppendCommit(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	w, err := Open(Options{Dir: dir, Policy: FsyncAlways, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 16, 25
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, _, err := w.AppendBatch([]logmodel.Entry{textEntry(fmt.Sprintf("w%02d-%04d", g, i))}); err != nil {
					t.Error(err)
					return
				}
				if err := w.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, res := replayAll(t, dir, 0)
	if len(got) != writers*perWriter || res.Torn {
		t.Fatalf("replayed %d frames (want %d), torn=%v", len(got), writers*perWriter, res.Torn)
	}
	snap := reg.Snapshot()
	fsyncs := snap.Histograms["journal_fsync_ns"].Count
	commits := snap.Counters["journal_commits_total"]
	if fsyncs > commits {
		t.Errorf("%d fsyncs for %d commits: group commit made things worse", fsyncs, commits)
	}
	t.Logf("coalescing: %d commits → %d fsyncs", commits, fsyncs)
}

// TestAppendBatchMatchesPerEntryAppend pins byte-identical journal output:
// the batched, scratch-buffer encode path must produce exactly the segment
// bytes of framing EncodeEntry(nil, e) for each entry by hand — length,
// CRC-32C over LSN and payload, LSN, payload.
func TestAppendBatchMatchesPerEntryAppend(t *testing.T) {
	entries := make([]logmodel.Entry, 50)
	for i := range entries {
		entries[i] = logmodel.Entry{
			Seq:       int64(i),
			Time:      time.Date(2004, 3, 1, 0, 0, i, i, time.UTC),
			User:      fmt.Sprintf("user-%d", i%7),
			Session:   fmt.Sprintf("sess-%d", i%3),
			Rows:      int64(i * 11),
			Statement: fmt.Sprintf("SELECT %d FROM photoobj -- pad %s", i, string(rune('a'+i%26))),
		}
	}

	var a []byte
	for i, e := range entries {
		payload := EncodeEntry(nil, e)
		var hdr [frameHeader]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint64(hdr[8:16], uint64(i+1))
		crc := crc32.Update(crc32.Checksum(hdr[8:16], castagnoli), castagnoli, payload)
		binary.LittleEndian.PutUint32(hdr[4:8], crc)
		a = append(append(a, hdr[:]...), payload...)
	}

	dirB := t.TempDir()
	wb, err := Open(Options{Dir: dirB, Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	// Split across three calls to exercise scratch reuse between batches.
	for _, chunk := range [][]logmodel.Entry{entries[:20], entries[20:21], entries[21:]} {
		n, last, err := wb.AppendBatch(chunk)
		if err != nil || n != len(chunk) {
			t.Fatalf("AppendBatch: n=%d err=%v", n, err)
		}
		if last != wb.LastLSN() {
			t.Fatalf("AppendBatch lastLSN=%d, writer says %d", last, wb.LastLSN())
		}
	}
	wb.Close()

	segsB, _ := listSegments(dirB)
	if len(segsB) != 1 {
		t.Fatalf("segments: %d, want 1", len(segsB))
	}
	b, _ := os.ReadFile(segsB[0].path)
	if !bytes.Equal(a, b) {
		t.Fatalf("batched journal bytes differ from per-entry bytes (%d vs %d bytes)", len(a), len(b))
	}
}

// TestAppendBatchAllocFree pins the tentpole's allocation claim: once the
// scratch buffer has grown, AppendBatch performs zero allocations per call.
func TestAppendBatchAllocFree(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir(), Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	batch := make([]logmodel.Entry, 8)
	for i := range batch {
		batch[i] = logmodel.Entry{
			Seq: int64(i), Time: time.Unix(1060000000+int64(i), 0).UTC(),
			User: "u", Session: "s", Rows: 3,
			Statement: "SELECT ra, dec FROM photoobj WHERE obj_id = 12345",
		}
	}
	// Warm up: grows encBuf and the bufio writer path.
	if _, _, err := w.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := w.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("AppendBatch allocs/op = %v, want 0", allocs)
	}
}

// TestEntryCodecRoundTrip pins the entry wire format, including awkward
// statements (tabs, newlines, unicode), unknown row counts and empty fields.
func TestEntryCodecRoundTrip(t *testing.T) {
	entries := []logmodel.Entry{
		{Seq: 0, Time: time.Date(2003, 6, 1, 12, 0, 0, 123456789, time.UTC), User: "alice", Session: "s1", Rows: 42, Statement: "SELECT 1"},
		{Seq: 7, Time: time.Date(2008, 1, 2, 3, 4, 5, 0, time.UTC), Rows: -1, Statement: "SELECT\tx\nFROM t -- é"},
		{Seq: 1 << 40, Time: time.Unix(0, 1).UTC(), User: "", Session: "", Rows: 0, Statement: ""},
	}
	for _, e := range entries {
		payload := EncodeEntry(nil, e)
		got, err := DecodeEntry(payload)
		if err != nil {
			t.Fatalf("decode %+v: %v", e, err)
		}
		if !reflect.DeepEqual(got, e) {
			t.Errorf("round trip: got %+v want %+v", got, e)
		}
	}
	if _, err := DecodeEntry([]byte{0x80}); err == nil {
		t.Error("DecodeEntry accepted a truncated payload")
	}
	if _, err := DecodeEntry(append(EncodeEntry(nil, entries[0]), 0)); err == nil {
		t.Error("DecodeEntry accepted trailing bytes")
	}
}

// FuzzDecodeEntry holds the entry codec to a round trip on any payload:
// whatever DecodeEntry accepts, EncodeEntry re-encodes to bytes that decode
// to the same entry, and that encoding is its own fixed point.
func FuzzDecodeEntry(f *testing.F) {
	f.Add(EncodeEntry(nil, logmodel.Entry{Seq: 3, Time: time.Date(2003, 6, 1, 12, 0, 0, 5, time.UTC), User: "10.0.0.1", Session: "s1", Rows: -1, Statement: "SELECT objid FROM PhotoObj WHERE objid = 7"}))
	f.Add(EncodeEntry(nil, logmodel.Entry{Time: time.Unix(0, 0).UTC()}))
	f.Add([]byte{0x80})
	f.Fuzz(func(t *testing.T, payload []byte) {
		e, err := DecodeEntry(payload)
		if err != nil {
			return
		}
		enc := EncodeEntry(nil, e)
		again, err := DecodeEntry(enc)
		if err != nil {
			t.Fatalf("re-encoding of %+v does not decode: %v", e, err)
		}
		if again != e {
			t.Fatalf("round trip: got %+v want %+v", again, e)
		}
		if re := EncodeEntry(nil, again); !bytes.Equal(re, enc) {
			t.Fatalf("encoding is not a fixed point: %x then %x", enc, re)
		}
	})
}

// FuzzReplay mutates a segment the Writer wrote. Replay must deliver only
// frames the writer wrote, each with its own LSN; Open on the same directory
// must then succeed, truncating no frame Replay delivered.
func FuzzReplay(f *testing.F) {
	dir := f.TempDir()
	w, err := Open(Options{Dir: dir, Policy: FsyncNever})
	if err != nil {
		f.Fatal(err)
	}
	written := map[uint64]string{}
	for i := 0; i < 4; i++ {
		e := textEntry(fmt.Sprintf("payload-%04d", i))
		if _, lsn, err := w.AppendBatch([]logmodel.Entry{e}); err != nil {
			f.Fatal(err)
		} else {
			written[lsn] = string(EncodeEntry(nil, e))
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		f.Fatalf("segments: %v %v", segs, err)
	}
	seg, err := os.ReadFile(segs[0].path)
	if err != nil {
		f.Fatal(err)
	}
	name := filepath.Base(segs[0].path)
	f.Add(seg)
	f.Add(seg[:len(seg)-5])
	f.Fuzz(func(t *testing.T, data []byte) {
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		replay := func() int {
			res, err := Replay(d, 0, func(lsn uint64, payload []byte) error {
				if want, ok := written[lsn]; !ok || want != string(payload) {
					t.Fatalf("replay delivered frame %d (%x), which the writer did not write", lsn, payload)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return res.Frames
		}
		before := replay()
		w, err := Open(Options{Dir: d, Policy: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if after := replay(); after != before {
			t.Fatalf("Open left %d frames, Replay delivered %d before it", after, before)
		}
	})
}
