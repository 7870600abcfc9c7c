package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func collectReplay(t *testing.T, dir string, opt Options) ([]Record, OpenResult, *Log) {
	t.Helper()
	opt.Dir = dir
	var got []Record
	l, res, err := Open(opt, func(r *Record) { got = append(got, *r) })
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return got, res, l
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: KindWrite, Epoch: 3, Inc: 7, Key: 42, Stamp: 99, Value: []byte("hello")},
		{Kind: KindPromise, Key: 1, Slot: 5, Stamp: 0x1234},
		{Kind: KindAccept, Key: 1, Slot: 5, Stamp: 0x1235, Origin: 77, Value: []byte("acc")},
		{Kind: KindCommit, Key: 1, Slot: 5, Stamp: 0x1235, Origin: 77, Value: []byte("acc"), Origins: []uint64{1, 2, 3}},
		{Kind: KindImport, Key: 9, Slot: 2, Origin: 5, Origins: []uint64{8}},
		{Kind: KindConfig, Epoch: 4, Value: []byte{1, 0, 0, 0, 7, 0}},
		{Kind: KindBoot, Inc: 12},
		{Kind: KindSnapEntry, Key: 3, Slot: 1, Stamp: 10, Promised: 11, AccBallot: 12, LastBallot: 13, AccOrigin: 14, AccVal: []byte("pending"), Value: []byte("v"), Origins: []uint64{4, 5}},
	}
	var buf []byte
	for i := range recs {
		buf = recs[i].appendFrame(buf)
	}
	var got []Record
	n, used := scanFrames(buf, func(r *Record) { got = append(got, *r) })
	if n != len(recs) {
		t.Fatalf("scanned %d records, want %d", n, len(recs))
	}
	if used != len(buf) {
		t.Fatalf("scan consumed %d of %d bytes", used, len(buf))
	}
	for i := range recs {
		if !reflect.DeepEqual(got[i], recs[i]) {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestOpenReplaysInOrder(t *testing.T) {
	dir := t.TempDir()
	_, res, l := collectReplay(t, dir, Options{Incarnation: 1})
	if res.Restored {
		t.Fatal("fresh dir reported Restored")
	}
	for i := 0; i < 100; i++ {
		l.Append(Record{Kind: KindWrite, Key: uint64(i), Stamp: uint64(i + 1), Value: []byte{byte(i)}})
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	got, res, l2 := collectReplay(t, dir, Options{Incarnation: 1})
	defer l2.Close()
	if !res.Restored {
		t.Fatal("restart not reported as Restored")
	}
	// First replayed record is the prior boot marker.
	if got[0].Kind != KindBoot {
		t.Fatalf("first record kind = %d, want KindBoot", got[0].Kind)
	}
	writes := got[1:]
	if len(writes) != 100 {
		t.Fatalf("replayed %d writes, want 100", len(writes))
	}
	for i, r := range writes {
		if r.Key != uint64(i) || r.Stamp != uint64(i+1) || !bytes.Equal(r.Value, []byte{byte(i)}) {
			t.Fatalf("write %d out of order or corrupt: %+v", i, r)
		}
		if r.Inc != 1 {
			t.Fatalf("write %d incarnation = %d, want 1", i, r.Inc)
		}
	}
}

func TestCrashPreservesBufferedRecords(t *testing.T) {
	dir := t.TempDir()
	// A long fsync interval so nothing is durable by deadline; Crash
	// must still push the buffer through write(2).
	_, _, l := collectReplay(t, dir, Options{Incarnation: 1, FsyncInterval: time.Hour})
	for i := 0; i < 10; i++ {
		l.Append(Record{Kind: KindWrite, Key: uint64(i), Stamp: 1})
	}
	l.Crash()

	got, _, l2 := collectReplay(t, dir, Options{})
	defer l2.Close()
	writes := 0
	for _, r := range got {
		if r.Kind == KindWrite {
			writes++
		}
	}
	if writes != 10 {
		t.Fatalf("replayed %d writes after crash, want 10", writes)
	}
}

func TestIncarnationMonotonic(t *testing.T) {
	dir := t.TempDir()
	_, res, l := collectReplay(t, dir, Options{Incarnation: 5})
	if res.Incarnation != 5 {
		t.Fatalf("first boot incarnation = %d, want 5", res.Incarnation)
	}
	l.Close()

	// A stale request must be raised above the logged incarnation,
	// even though the node never appended any traffic.
	_, res, l = collectReplay(t, dir, Options{Incarnation: 0})
	if res.Incarnation != 6 {
		t.Fatalf("second boot incarnation = %d, want 6", res.Incarnation)
	}
	l.Close()

	// A higher explicit request wins.
	_, res, l = collectReplay(t, dir, Options{Incarnation: 20})
	if res.Incarnation != 20 {
		t.Fatalf("third boot incarnation = %d, want 20", res.Incarnation)
	}
	l.Close()
}

func TestSyncMakesAppendsDurable(t *testing.T) {
	dir := t.TempDir()
	_, _, l := collectReplay(t, dir, Options{Incarnation: 1, FsyncInterval: -1})
	if err := l.Sync(); err != nil { // no-op sync on empty log
		t.Fatalf("empty Sync: %v", err)
	}
	l.Append(Record{Kind: KindWrite, Key: 1, Stamp: 1})
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if l.syncedSeq.Load() < l.appendSeq.Load() {
		t.Fatalf("syncedSeq %d < appendSeq %d after Sync", l.syncedSeq.Load(), l.appendSeq.Load())
	}
	l.Close()
}

// TestZeroAllocSync pins Append+Sync at zero allocations, counted over
// every goroutine of the process, the flusher's included: Sync waits on
// the flusher's watermark instead of handing it a reply channel per call.
func TestZeroAllocSync(t *testing.T) {
	_, _, l := collectReplay(t, t.TempDir(), Options{Incarnation: 1, FsyncInterval: -1})
	defer l.Close()
	rec := Record{Kind: KindWrite, Key: 1, Stamp: 1, Value: []byte("value")}
	step := func() {
		l.Append(rec)
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	step() // grow the group-commit buffers once
	step()
	if got := testing.AllocsPerRun(200, step); got != 0 {
		t.Fatalf("Append+Sync allocates %.2f/op, want 0", got)
	}
}

// TestSyncCountsUndercountedRecords: a flusher pass can write a record
// whose Append has placed its bytes but not yet counted it, so the pass
// leaves it out of the watermark. A later Sync finds nothing left to write
// and must still see the record counted, or it waits for appends that may
// never come.
func TestSyncCountsUndercountedRecords(t *testing.T) {
	_, _, l := collectReplay(t, t.TempDir(), Options{Incarnation: 1, FsyncInterval: -1})
	defer l.Close()
	// Append's two steps, with a flusher pass between them: the pass writes
	// the record while it is still uncounted.
	rec := Record{Kind: KindWrite, Key: 1, Stamp: 1, Inc: l.inc}
	l.mu.Lock()
	l.buf = rec.appendFrame(l.buf)
	l.mu.Unlock()
	reply := make(chan rotateReply, 1)
	l.rotateCh <- reply
	if r := <-reply; r.err != nil {
		t.Fatal(r.err)
	}
	l.appendSeq.Add(1)

	done := make(chan error, 1)
	go func() { done <- l.Sync() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Sync waits for a record the flusher already wrote")
	}
}

// TestEmptyFlushKeepsRecycledBuffer: the flusher recycles each written
// batch's buffer for the next one. A flush that finds nothing to write
// must keep that buffer, or the next batch regrows from nothing.
func TestEmptyFlushKeepsRecycledBuffer(t *testing.T) {
	_, _, l := collectReplay(t, t.TempDir(), Options{Incarnation: 1, FsyncInterval: time.Hour})
	defer l.Close()
	rec := Record{Kind: KindWrite, Key: 1, Stamp: 1, Value: []byte("value")}
	batch := func() {
		for i := 0; i < 64; i++ {
			l.Append(rec)
		}
	}
	// flush is a rotation request straight to the flusher, which writes
	// the pending batch first even when there is nothing to write — past
	// Sync's nothing-to-do shortcut — and answers once it is done.
	flush := func() {
		reply := make(chan rotateReply, 1)
		l.rotateCh <- reply
		if r := <-reply; r.err != nil {
			t.Fatal(r.err)
		}
	}
	// Two written batches put both buffers in rotation; then a flush
	// finds the buffer empty, and one more batch is written.
	for i := 0; i < 2; i++ {
		batch()
		flush()
	}
	flush()
	batch()
	flush()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	batch()
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("%d allocations appending a batch after an empty flush, want 0", n)
	}
}

func segPath(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listIndexed(dir, "seg-", ".wal")
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return filepath.Join(dir, segName(segs[len(segs)-1]))
}

func TestTornTailTruncatesReplay(t *testing.T) {
	dir := t.TempDir()
	_, _, l := collectReplay(t, dir, Options{Incarnation: 1})
	for i := 0; i < 20; i++ {
		l.Append(Record{Kind: KindWrite, Key: uint64(i), Stamp: 1, Value: []byte("0123456789")})
	}
	l.Close()

	// Tear the tail mid-frame: chop the last 7 bytes.
	p := segPath(t, dir)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	got, _, l2 := collectReplay(t, dir, Options{})
	writes := 0
	for _, r := range got {
		if r.Kind == KindWrite {
			writes++
			if len(r.Value) != 10 {
				t.Fatalf("partial value served: %q", r.Value)
			}
		}
	}
	if writes != 19 {
		t.Fatalf("replayed %d writes after torn tail, want 19", writes)
	}
	l2.Close()

	// That reopen repaired the tear (truncate + fsync) before creating
	// the successor segment, so the next restart must see a clean
	// non-final segment and replay the same prefix — a second crash
	// right after the first restart must not brick the log.
	got, _, l3 := collectReplay(t, dir, Options{})
	defer l3.Close()
	writes = 0
	for _, r := range got {
		if r.Kind == KindWrite {
			writes++
		}
	}
	if writes != 19 {
		t.Fatalf("replayed %d writes after repair, want 19", writes)
	}
}

func TestBitFlipStopsAtCorruption(t *testing.T) {
	dir := t.TempDir()
	_, _, l := collectReplay(t, dir, Options{Incarnation: 1})
	for i := 0; i < 20; i++ {
		l.Append(Record{Kind: KindWrite, Key: uint64(i), Stamp: 1, Value: []byte("0123456789")})
	}
	l.Close()

	// Flip one bit in the middle of the file; replay must stop at the
	// corrupted frame and serve only the prefix before it.
	p := segPath(t, dir)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, _, l2 := collectReplay(t, dir, Options{})
	defer l2.Close()
	for _, r := range got {
		if r.Kind == KindWrite && len(r.Value) != 10 {
			t.Fatalf("corrupt record served: %+v", r)
		}
	}
	writes := 0
	for _, r := range got {
		if r.Kind == KindWrite {
			writes++
		}
	}
	if writes >= 20 {
		t.Fatalf("corruption not detected: %d writes replayed", writes)
	}
}

func TestSnapshotTruncatesSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so the pre-snapshot records span several files.
	_, _, l := collectReplay(t, dir, Options{Incarnation: 1, SegmentBytes: 256, SnapshotEvery: 50})
	for i := 0; i < 100; i++ {
		l.Append(Record{Kind: KindWrite, Key: uint64(i), Stamp: uint64(i + 1), Value: []byte("0123456789")})
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if !l.SnapshotDue() {
		t.Fatal("snapshot not due after 100 appends with SnapshotEvery=50")
	}

	// The "store" here is a flat map standing in for the kvs iteration.
	snapStore := func(n int) func(emit func(*Record)) {
		return func(emit func(*Record)) {
			for i := 0; i < n; i++ {
				emit(&Record{Kind: KindSnapEntry, Key: uint64(i), Stamp: uint64(i + 1), Value: []byte("0123456789")})
			}
		}
	}
	if err := l.Snapshot(snapStore(100)); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if l.SnapshotDue() {
		t.Fatal("snapshot still due right after snapshotting")
	}

	// The first snapshot has no predecessor to fall back to, so it must
	// not delete anything: every segment stays until it has a successor
	// snapshot covering it.
	firstSnaps, _ := listIndexed(dir, "snap-", ".snap")
	if len(firstSnaps) != 1 {
		t.Fatalf("want exactly 1 snapshot, have %v", firstSnaps)
	}
	if segs, _ := listIndexed(dir, "seg-", ".wal"); len(segs) == 0 || segs[0] != 0 {
		t.Fatalf("first snapshot deleted fallback segments: %v", segs)
	}

	// Post-snapshot traffic, then a second snapshot: the first one's
	// boundary becomes the retention floor and everything below it goes.
	for i := 100; i < 110; i++ {
		l.Append(Record{Kind: KindWrite, Key: uint64(i), Stamp: uint64(i + 1)})
	}
	if err := l.Snapshot(snapStore(110)); err != nil {
		t.Fatalf("second Snapshot: %v", err)
	}
	l.Close()

	snaps, _ := listIndexed(dir, "snap-", ".snap")
	if len(snaps) != 2 || snaps[0] != firstSnaps[0] {
		t.Fatalf("want previous+new snapshots, have %v", snaps)
	}
	segs, _ := listIndexed(dir, "seg-", ".wal")
	for _, idx := range segs {
		if idx < snaps[0] {
			t.Fatalf("segment %d below retention floor %d not truncated", idx, snaps[0])
		}
	}

	got, res, l2 := collectReplay(t, dir, Options{})
	defer l2.Close()
	if res.SnapEntries != 110 {
		t.Fatalf("replayed %d snapshot entries, want 110", res.SnapEntries)
	}
	keys := map[uint64]bool{}
	for _, r := range got {
		if r.Kind == KindSnapEntry || r.Kind == KindWrite {
			keys[r.Key] = true
		}
	}
	for i := 0; i < 110; i++ {
		if !keys[uint64(i)] {
			t.Fatalf("key %d lost across snapshot+replay", i)
		}
	}
}

func TestOldSnapshotSurvivesCorruptNewOne(t *testing.T) {
	dir := t.TempDir()
	_, _, l := collectReplay(t, dir, Options{Incarnation: 1, SegmentBytes: 256})
	for i := 0; i < 50; i++ {
		l.Append(Record{Kind: KindWrite, Key: uint64(i), Stamp: 1})
	}
	if err := l.Snapshot(func(emit func(*Record)) {
		for i := 0; i < 50; i++ {
			emit(&Record{Kind: KindSnapEntry, Key: uint64(i), Stamp: 1})
		}
	}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Corrupt the snapshot wholesale: a first snapshot deletes nothing
	// (it has no fallback predecessor), so full segment replay must
	// recover every write — no partial records, no holes.
	snaps, _ := listIndexed(dir, "snap-", ".snap")
	p := filepath.Join(dir, snapName(snaps[0]))
	if err := os.WriteFile(p, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, l2 := collectReplay(t, dir, Options{})
	defer l2.Close()
	writes := 0
	for _, r := range got {
		if r.Kind == KindSnapEntry {
			t.Fatalf("corrupt snapshot entry served: %+v", r)
		}
		if r.Kind == KindWrite {
			writes++
		}
	}
	if writes != 50 {
		t.Fatalf("recovered %d writes via segment fallback, want 50", writes)
	}
}

// TestCorruptSnapshotFallsBackToPrevious pins the retention rule: the
// previous snapshot AND the segments it needs survive until the next
// snapshot succeeds, so losing the newest snapshot falls back to a
// complete (previous snapshot + segment suffix) replay, never one with
// a hole where truncated segments used to be.
func TestCorruptSnapshotFallsBackToPrevious(t *testing.T) {
	dir := t.TempDir()
	_, _, l := collectReplay(t, dir, Options{Incarnation: 1})
	snapStore := func(n int) func(emit func(*Record)) {
		return func(emit func(*Record)) {
			for i := 0; i < n; i++ {
				emit(&Record{Kind: KindSnapEntry, Key: uint64(i), Stamp: 1})
			}
		}
	}
	for i := 0; i < 50; i++ {
		l.Append(Record{Kind: KindWrite, Key: uint64(i), Stamp: 1})
	}
	if err := l.Snapshot(snapStore(50)); err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 100; i++ {
		l.Append(Record{Kind: KindWrite, Key: uint64(i), Stamp: 1})
	}
	if err := l.Snapshot(snapStore(100)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	snaps, _ := listIndexed(dir, "snap-", ".snap")
	if len(snaps) != 2 {
		t.Fatalf("want previous+new snapshots on disk, have %v", snaps)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName(snaps[1])), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	got, res, l2 := collectReplay(t, dir, Options{})
	defer l2.Close()
	if res.SnapEntries != 50 {
		t.Fatalf("fallback replayed %d snapshot entries, want 50 from the previous snapshot", res.SnapEntries)
	}
	keys := map[uint64]bool{}
	for _, r := range got {
		if r.Kind == KindSnapEntry || r.Kind == KindWrite {
			keys[r.Key] = true
		}
	}
	for i := 0; i < 100; i++ {
		if !keys[uint64(i)] {
			t.Fatalf("key %d lost in snapshot fallback", i)
		}
	}
}

// TestTornSnapshotRejectedWholesale: a snapshot that scans partway is
// rejected before a single entry is applied — all-or-nothing — and
// replay falls back as if it did not exist.
func TestTornSnapshotRejectedWholesale(t *testing.T) {
	dir := t.TempDir()
	_, _, l := collectReplay(t, dir, Options{Incarnation: 1})
	for i := 0; i < 30; i++ {
		l.Append(Record{Kind: KindWrite, Key: uint64(i), Stamp: 1})
	}
	if err := l.Snapshot(func(emit func(*Record)) {
		for i := 0; i < 30; i++ {
			emit(&Record{Kind: KindSnapEntry, Key: uint64(i), Stamp: 1})
		}
	}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Tear the snapshot mid-frame: a prefix of it still scans clean,
	// which is exactly the shape that must NOT be half-applied.
	snaps, _ := listIndexed(dir, "snap-", ".snap")
	p := filepath.Join(dir, snapName(snaps[0]))
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	got, res, l2 := collectReplay(t, dir, Options{})
	defer l2.Close()
	if res.SnapEntries != 0 {
		t.Fatalf("torn snapshot partially applied: %d entries", res.SnapEntries)
	}
	writes := 0
	for _, r := range got {
		if r.Kind == KindSnapEntry {
			t.Fatalf("torn snapshot entry served: %+v", r)
		}
		if r.Kind == KindWrite {
			writes++
		}
	}
	if writes != 30 {
		t.Fatalf("recovered %d writes via segment fallback, want 30", writes)
	}
}

// TestTornNonFinalSegmentFailsOpen: a torn frame in a segment that has
// a successor cannot be a crash artifact (rotation fsyncs first, and a
// torn final tail is truncated before the successor is created), so
// Open must refuse rather than replay around the hole.
func TestTornNonFinalSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	_, _, l := collectReplay(t, dir, Options{Incarnation: 1})
	for i := 0; i < 10; i++ {
		l.Append(Record{Kind: KindWrite, Key: uint64(i), Stamp: 1, Value: []byte("0123456789")})
	}
	l.Close()
	// Reopen/close to give seg-0 a successor.
	_, _, l2 := collectReplay(t, dir, Options{})
	l2.Close()

	segs, _ := listIndexed(dir, "seg-", ".wal")
	if len(segs) < 2 {
		t.Fatalf("want >=2 segments, have %v", segs)
	}
	p := filepath.Join(dir, segName(segs[0]))
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := Open(Options{Dir: dir}, nil); err == nil {
		t.Fatal("Open accepted a torn non-final segment")
	}
}

// TestSyncCriticalFsyncsOnlyCriticalTraffic: the worker-loop barrier
// must be free for pure relaxed-write iterations and force the batched
// fsync exactly when a consensus-critical record was appended.
func TestSyncCriticalFsyncsOnlyCriticalTraffic(t *testing.T) {
	dir := t.TempDir()
	// An hour-long deadline so the flusher never fsyncs on its own.
	_, _, l := collectReplay(t, dir, Options{Incarnation: 1, FsyncInterval: time.Hour})
	defer l.Close()

	// The boot record is critical (it pins the incarnation about to go
	// on the wire), so the first barrier fsyncs it.
	if err := l.SyncCritical(); err != nil {
		t.Fatalf("SyncCritical: %v", err)
	}
	base := l.syncedSeq.Load()
	if base < 1 {
		t.Fatal("boot record not made durable by SyncCritical")
	}

	l.Append(Record{Kind: KindWrite, Key: 1, Stamp: 1})
	if err := l.SyncCritical(); err != nil {
		t.Fatalf("SyncCritical: %v", err)
	}
	if got := l.syncedSeq.Load(); got != base {
		t.Fatalf("relaxed write forced an fsync: syncedSeq %d, want %d", got, base)
	}

	l.Append(Record{Kind: KindPromise, Key: 1, Slot: 0, Stamp: 2})
	if err := l.SyncCritical(); err != nil {
		t.Fatalf("SyncCritical: %v", err)
	}
	if got := l.syncedSeq.Load(); got < l.appendSeq.Load() {
		t.Fatalf("promise not durable after SyncCritical: synced %d < appended %d", got, l.appendSeq.Load())
	}
}

// FuzzWALReplay feeds arbitrary bytes to the segment scanner via a real
// Open: whatever is on disk — torn, truncated, bit-flipped, or hostile
// — replay must terminate without panicking, deliver only records that
// pass CRC and structural validation, and never deliver a record after
// the first invalid frame (no resynchronization: everything after a
// tear is untrusted).
func FuzzWALReplay(f *testing.F) {
	var seed []byte
	for i := 0; i < 5; i++ {
		r := Record{Kind: KindWrite, Key: uint64(i), Stamp: uint64(i), Value: []byte("payload")}
		seed = r.appendFrame(seed)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	flipped := append([]byte(nil), seed...)
	flipped[10] ^= 0xff
	f.Add(flipped)
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint32(nil, 0xffffffff))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), data, 0o644); err != nil {
			t.Skip()
		}
		var got []Record
		l, _, err := Open(Options{Dir: dir}, func(r *Record) { got = append(got, *r) })
		if err != nil {
			t.Skip() // I/O-level failure, not a replay bug
		}
		defer l.Close()

		// Every delivered record must be structurally sound, and the
		// delivered sequence must be a frame-aligned prefix of data.
		off := 0
		for i, r := range got {
			if len(r.Value) > maxValueLen || len(r.Origins) > maxOriginsLen {
				t.Fatalf("record %d violates bounds: %+v", i, r)
			}
			if off+frameHeader > len(data) {
				t.Fatalf("record %d delivered beyond input: off=%d", i, off)
			}
			length := int(binary.LittleEndian.Uint32(data[off:]))
			if off+frameHeader+length > len(data) {
				t.Fatalf("record %d frame overruns input", i)
			}
			reenc := r.appendFrame(nil)
			if !bytes.Equal(reenc[frameHeader:], data[off+frameHeader:off+frameHeader+length]) {
				t.Fatalf("record %d does not round-trip to its frame bytes", i)
			}
			off += frameHeader + length
		}
	})
}
