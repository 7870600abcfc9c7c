// Package wal is the per-node write-ahead log: a segmented append-only
// log of the store's durable transitions (value installs, Paxos
// promises/accepts/commits, catch-up imports, membership config
// commits) plus periodic store snapshots that bound replay length and
// let old segments be truncated.
//
// Durability rides a deadline, not a per-op syscall. Append only
// encodes into an in-memory buffer — it is cheap enough to call from
// inside a kvs bucket critical section, which is exactly where the
// store's mutation hook fires (so log order equals per-key mutation
// order by construction) — and wakes the flusher only when the buffer
// grows large. Otherwise the flusher runs on the group-commit deadline:
// every FsyncInterval it writes the accumulated batch and fsyncs it,
// one write(2) and one fdatasync-equivalent per interval no matter the
// append rate. The deadline window covers plain value installs only: a
// power loss can take back at most one FsyncInterval of acknowledged
// relaxed writes (a process kill takes back nothing — the page cache
// survives). Consensus-critical records — Paxos promises, accepts,
// commits, and the boot marker (see criticalKind) — never ride the
// window in any mode: the worker loop calls SyncCritical before
// shipping each iteration's acks, which is a no-op unless the
// iteration appended such a record and otherwise fsyncs the whole
// batch once. Synchronous mode (FsyncInterval < 0) extends that
// barrier to every record: the worker calls Sync before shipping each
// iteration's acks, so any acknowledgment implies durability.
//
// On Open the log replays the newest intact snapshot and every segment
// at or after its boundary through the caller's apply function, then
// starts a fresh segment (old segment tails may be torn; they are never
// appended to again). Replay application is the caller's business, but
// the contract the caller must honor is that every application is
// guarded or idempotent — records that duplicate snapshot content, or
// that replay after a later record already superseded them, must be
// harmless. The store's LWW installs and the Paxos replay guards both
// have this shape.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// DefaultFsyncInterval is the group-commit deadline when
	// Options.FsyncInterval is zero: the upper bound on acknowledged
	// work a power loss can take back.
	DefaultFsyncInterval = 10 * time.Millisecond

	// DefaultSegmentBytes rotates segments at 4 MiB — small enough
	// that snapshot truncation reclaims space promptly, large enough
	// that rotation is rare on the hot path.
	DefaultSegmentBytes = 4 << 20

	// DefaultSnapshotEvery is the append count between snapshots when
	// Options.SnapshotEvery is zero.
	DefaultSnapshotEvery = 1 << 16

	// flushChunk is the buffered-bytes threshold past which Append wakes
	// the flusher ahead of the deadline. Below it, batches ride the
	// FsyncInterval timer — the whole point of group commit is that the
	// hot path costs a memcpy, not a wakeup.
	flushChunk = 256 << 10
)

// Options configures Open.
type Options struct {
	// Dir is the log directory, created if absent. One directory per
	// node — segments and snapshots from different nodes must never
	// mix.
	Dir string

	// FsyncInterval is the group-commit deadline. Zero means
	// DefaultFsyncInterval. The deadline governs plain value installs
	// only; consensus-critical records are always fsynced before the
	// acks they justify ship (the owner calls SyncCritical at its
	// commit points — the core worker loop does, once per iteration).
	// Negative means synchronous mode: the flusher never fsyncs on its
	// own and the owner calls full Sync at those same commit points.
	FsyncInterval time.Duration

	// SegmentBytes rotates the active segment when it grows past this
	// size. Zero means DefaultSegmentBytes.
	SegmentBytes int64

	// SnapshotEvery is the number of appended records after which
	// SnapshotDue reports true. Zero means DefaultSnapshotEvery;
	// negative disables snapshot scheduling (segments then grow
	// without bound — testing only).
	SnapshotEvery int

	// Incarnation is the boot incarnation the owner wants. Open raises
	// it above any incarnation found in the log so op-id namespaces
	// are never reused across restarts, even if the operator passes a
	// stale value.
	Incarnation uint32
}

func (o Options) withDefaults() Options {
	if o.FsyncInterval == 0 {
		o.FsyncInterval = DefaultFsyncInterval
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = DefaultSnapshotEvery
	}
	return o
}

// OpenResult reports what Open found on disk.
type OpenResult struct {
	// Incarnation is the effective boot incarnation: the requested one
	// raised above every incarnation recorded in the log.
	Incarnation uint32
	// Records is the number of log records replayed (snapshot entries
	// excluded).
	Records int
	// SnapEntries is the number of snapshot entries replayed.
	SnapEntries int
	// Restored is true when the log held any prior state at all — the
	// node is a restart, not a first boot.
	Restored bool
}

// Log is an open write-ahead log. Append/Sync/SnapshotDue are safe for
// concurrent use; Snapshot serializes internally; Close and Crash are
// idempotent.
type Log struct {
	opt Options
	inc uint32

	mu  sync.Mutex // guards buf
	buf []byte

	appendSeq atomic.Uint64 // records appended
	syncedSeq atomic.Uint64 // records durable (fsynced)
	critSeq   atomic.Uint64 // appendSeq as of the latest critical record
	sinceSnap atomic.Uint64 // records appended since the last snapshot

	// failErr is the first unrecoverable flusher error (failed write,
	// fsync, or rotation). Once set, syncedSeq stops advancing — the
	// log no longer claims durability it cannot deliver — and every
	// Sync/SyncCritical reports the error so the owner can stop.
	failErr atomic.Pointer[error]

	kick     chan struct{}
	syncKick chan struct{} // a Sync waits: write and fsync now
	rotateCh chan chan rotateReply
	closeCh  chan struct{}
	done     chan struct{}

	closed  atomic.Bool
	crashed atomic.Bool

	// Sync callers wait on synced for the flusher's watermark. The flusher
	// broadcasts after every fsync, a failure and its exit (flusherDone).
	syncMu      sync.Mutex
	synced      *sync.Cond
	flusherDone bool

	snapMu sync.Mutex // serializes Snapshot
}

type rotateReply struct {
	index uint64
	err   error
}

func segName(index uint64) string  { return fmt.Sprintf("seg-%08d.wal", index) }
func snapName(index uint64) string { return fmt.Sprintf("snap-%08d.snap", index) }

func parseIndexed(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	idx, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return idx, true
}

// listIndexed returns the sorted indices of files matching
// prefix%08dsuffix in dir.
func listIndexed(dir, prefix, suffix string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if idx, ok := parseIndexed(e.Name(), prefix, suffix); ok {
			out = append(out, idx)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Open replays the log at opt.Dir through apply (newest intact
// snapshot first, then every segment at or after its boundary, in
// order, stopping each file at its first torn frame), appends a boot
// record under the effective incarnation, and starts the flusher.
func Open(opt Options, apply func(*Record)) (*Log, OpenResult, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, OpenResult{}, err
	}

	var res OpenResult
	maxInc := uint32(0)
	observe := func(r *Record) {
		if r.Inc > maxInc {
			maxInc = r.Inc
		}
		if apply != nil {
			apply(r)
		}
	}

	snaps, err := listIndexed(opt.Dir, "snap-", ".snap")
	if err != nil {
		return nil, OpenResult{}, err
	}
	segs, err := listIndexed(opt.Dir, "seg-", ".wal")
	if err != nil {
		return nil, OpenResult{}, err
	}

	// A snapshot named snap-K covers everything before segment K. Use
	// the newest one that reads back fully intact — a snapshot is
	// all-or-nothing, so it is validated end to end BEFORE any entry is
	// applied; a torn or unreadable one (e.g. a crash between rename
	// and the first page hitting disk on a non-atomic filesystem) falls
	// back to the previous snapshot, which Snapshot retains — together
	// with every segment at or after its boundary — until the snapshot
	// superseding it has itself been superseded.
	replayFrom := uint64(0)
	for i := len(snaps) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(opt.Dir, snapName(snaps[i])))
		if err != nil {
			continue
		}
		n, used := scanFrames(data, nil)
		if n == 0 || used != len(data) {
			continue
		}
		scanFrames(data, func(r *Record) {
			if r.Kind == KindSnapEntry || r.Kind == KindConfig {
				observe(r)
			}
		})
		res.SnapEntries = n
		replayFrom = snaps[i]
		break
	}

	for i, idx := range segs {
		if idx < replayFrom {
			continue
		}
		path := filepath.Join(opt.Dir, segName(idx))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, OpenResult{}, err
		}
		n, used := scanFrames(data, observe)
		res.Records += n
		if used == len(data) {
			continue
		}
		if i != len(segs)-1 {
			// Rotation fsyncs a segment before its successor exists, and
			// a torn final segment is truncated to its valid prefix (and
			// fsynced) right here, before the next boot's segment is
			// created. A torn frame in a non-final segment therefore
			// cannot be a crash artifact — it is corruption of the
			// durable prefix, and replaying around the hole would
			// silently drop promise/accept records. Refuse, and let the
			// operator fall back to a full resync from peers.
			return nil, OpenResult{}, fmt.Errorf(
				"wal: %s torn at byte %d but later segments exist: durable prefix corrupt, wipe %s and rejoin from peers",
				segName(idx), used, opt.Dir)
		}
		// Final segment: a torn tail is the expected power-loss shape.
		// Truncate it away so the invariant above holds once this
		// segment gains a successor (which Open is about to create).
		if err := truncateSync(path, int64(used)); err != nil {
			return nil, OpenResult{}, err
		}
	}

	res.Restored = res.Records > 0 || res.SnapEntries > 0
	res.Incarnation = opt.Incarnation
	if maxInc >= res.Incarnation {
		res.Incarnation = maxInc + 1
	}

	// Never append to an old segment, even though any torn tail was
	// truncated away above — starting fresh keeps "one boot, one
	// segment suffix" and costs one small file. Must come after the
	// tail repair: its fsync completes before the successor segment
	// exists, which is what lets replay treat a torn frame in a
	// non-final segment as corruption.
	nextSeg := uint64(0)
	if len(segs) > 0 {
		nextSeg = segs[len(segs)-1] + 1
	}
	if replayFrom > nextSeg {
		nextSeg = replayFrom
	}

	l := &Log{
		opt:      opt,
		inc:      res.Incarnation,
		kick:     make(chan struct{}, 1),
		syncKick: make(chan struct{}, 1),
		rotateCh: make(chan chan rotateReply),
		closeCh:  make(chan struct{}),
		done:     make(chan struct{}),
	}
	l.synced = sync.NewCond(&l.syncMu)

	f, err := os.OpenFile(filepath.Join(opt.Dir, segName(nextSeg)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, OpenResult{}, err
	}
	syncDir(opt.Dir)

	go l.flusher(f, nextSeg)

	// The boot record makes the effective incarnation durable even on
	// an idle node, so the next restart allocates above it.
	l.Append(Record{Kind: KindBoot})
	return l, res, nil
}

// Incarnation returns the effective boot incarnation.
func (l *Log) Incarnation() uint32 { return l.inc }

// Dir returns the log directory.
func (l *Log) Dir() string { return l.opt.Dir }

// Append encodes r into the group-commit buffer. It never blocks on I/O
// — it is called from inside kvs bucket critical sections — and its
// lock nests strictly inside bucket locks (the flusher takes l.mu only
// around a buffer swap). The flusher is woken only when the buffer has
// grown past flushChunk; smaller batches ride the deadline timer. The
// record's incarnation field is stamped here.
func (l *Log) Append(r Record) {
	if l.closed.Load() {
		return
	}
	r.Inc = l.inc
	l.mu.Lock()
	l.buf = r.appendFrame(l.buf)
	big := len(l.buf) >= flushChunk
	l.mu.Unlock()
	seq := l.appendSeq.Add(1)
	l.sinceSnap.Add(1)
	if criticalKind(r.Kind) {
		// CAS-max: concurrent appenders may reach here out of seq
		// order, and critSeq regressing would let SyncCritical skip a
		// record that still needs the fsync.
		for {
			cur := l.critSeq.Load()
			if cur >= seq || l.critSeq.CompareAndSwap(cur, seq) {
				break
			}
		}
	}
	if big {
		select {
		case l.kick <- struct{}{}:
		default:
		}
	}
}

// Sync makes every record appended so far durable (flushed and
// fsynced) before returning. When nothing new was appended since the
// last fsync it returns immediately without a syscall, so calling it
// once per worker-loop iteration is cheap on idle workers. Otherwise it
// wakes the flusher and waits for its durability watermark to pass the
// records appended so far; concurrent callers share the flusher's fsync.
func (l *Log) Sync() error {
	target := l.appendSeq.Load()
	if l.syncedSeq.Load() >= target {
		return nil
	}
	if l.closed.Load() {
		return errors.New("wal: closed")
	}
	// The flusher loads appendSeq after taking this kick (or a kick still
	// queued, which it takes after target was loaded), so the fsync it
	// answers with covers target unless the log failed.
	select {
	case l.syncKick <- struct{}{}:
	default:
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	for l.syncedSeq.Load() < target {
		if err := l.Err(); err != nil {
			return err
		}
		if l.flusherDone {
			return errors.New("wal: closed")
		}
		l.synced.Wait()
	}
	return nil
}

// SyncCritical makes every consensus-critical record appended so far
// (criticalKind: Paxos promises, accepts, commits, the boot marker)
// durable before returning. Unlike Sync it returns immediately — two
// atomic loads, no flusher round-trip — while no unsynced critical
// record exists, so the worker loop calls it before shipping every
// iteration's acks: pure relaxed-write traffic never pays an fsync
// (those acks ride the group-commit deadline by design), while an
// iteration that granted promises or accepts pays exactly one batched
// fsync covering all of them.
func (l *Log) SyncCritical() error {
	if l.syncedSeq.Load() >= l.critSeq.Load() {
		return nil
	}
	return l.Sync()
}

// Err reports the first unrecoverable I/O error the flusher hit (failed
// write, fsync, or rotation), or nil. Once non-nil the log has stopped
// advancing its durability watermark: the owner must treat appended-
// but-unsynced records as lost and stop acknowledging work.
func (l *Log) Err() error {
	if p := l.failErr.Load(); p != nil {
		return *p
	}
	return nil
}

// SnapshotDue reports whether enough records have been appended since
// the last snapshot to warrant a new one.
func (l *Log) SnapshotDue() bool {
	if l.opt.SnapshotEvery < 0 || l.closed.Load() {
		return false
	}
	return l.sinceSnap.Load() >= uint64(l.opt.SnapshotEvery)
}

// Snapshot writes a point-in-time store snapshot and truncates the
// segments it makes obsolete. The caller drives the iteration: iter
// must call emit once per record to persist. emit only buffers in
// memory — it is safe to call while holding kvs bucket locks; all file
// I/O happens in Snapshot itself, after iter returns.
//
// Sequence: rotate the active segment (the new segment's index K
// becomes the snapshot boundary), buffer the snapshot, write it to a
// temp file, fsync, rename to snap-K, then truncate what snap-K makes
// obsolete — but only down to the PREVIOUS snapshot's boundary J, not
// to K: snap-J and segments [J,K) survive until the next snapshot
// succeeds, so if snap-K ever proves unreadable, Open's fallback to
// snap-J still has every segment at or after J and replays a complete
// suffix, never a holed one. Appends racing the iteration land in
// segment K and replay over the snapshot on the next boot; that
// overlap is harmless because replay application is idempotent.
func (l *Log) Snapshot(iter func(emit func(*Record))) error {
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	if l.closed.Load() {
		return errors.New("wal: closed")
	}

	// Retention floor: the newest snapshot that exists before this one.
	prevSnaps, err := listIndexed(l.opt.Dir, "snap-", ".snap")
	if err != nil {
		return err
	}
	floor := uint64(0)
	if len(prevSnaps) > 0 {
		floor = prevSnaps[len(prevSnaps)-1]
	}

	reply := make(chan rotateReply, 1)
	select {
	case l.rotateCh <- reply:
	case <-l.done:
		return errors.New("wal: closed")
	}
	rot := <-reply
	if rot.err != nil {
		return rot.err
	}
	boundary := rot.index

	// Reset the cadence counter now: records appended during the
	// iteration are covered by the segments the snapshot keeps.
	l.sinceSnap.Store(0)

	var buf []byte
	iter(func(r *Record) {
		r.Inc = l.inc
		buf = r.appendFrame(buf)
	})

	tmp := filepath.Join(l.opt.Dir, "snap.tmp")
	if err := writeFileSync(tmp, buf); err != nil {
		return err
	}
	final := filepath.Join(l.opt.Dir, snapName(boundary))
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	syncDir(l.opt.Dir)

	// Truncate below the retention floor only: the previous snapshot
	// and the segments it needs stay as the fallback until the snapshot
	// written above is itself superseded.
	if segs, err := listIndexed(l.opt.Dir, "seg-", ".wal"); err == nil {
		for _, idx := range segs {
			if idx < floor {
				os.Remove(filepath.Join(l.opt.Dir, segName(idx)))
			}
		}
	}
	for _, idx := range prevSnaps {
		if idx < floor {
			os.Remove(filepath.Join(l.opt.Dir, snapName(idx)))
		}
	}
	return nil
}

// Close flushes, fsyncs, and closes the log. Further appends are
// dropped.
func (l *Log) Close() error {
	if l.closed.Swap(true) {
		<-l.done
		return nil
	}
	close(l.closeCh)
	<-l.done
	return nil
}

// Crash closes the log the way SIGKILL would: buffered records are
// written to the file — a killed process's page cache survives, so
// in-flight write(2)s are not the lossy part — but nothing is fsynced.
// Data not yet flushed by the kernel models the power-loss window.
func (l *Log) Crash() {
	l.crashed.Store(true)
	if l.closed.Swap(true) {
		<-l.done
		return
	}
	close(l.closeCh)
	<-l.done
}

// flusher owns the active segment file exclusively. It drains the
// group-commit buffer and fsyncs on the deadline timer — one write and
// one fsync per FsyncInterval, bounding the durability window to the
// interval — drains early when Append signals a large buffer, rotates
// segments on size or on demand, and answers synchronous Sync requests.
func (l *Log) flusher(seg *os.File, segIndex uint64) {
	defer close(l.done)

	var (
		segBytes  int64
		dirty     bool // bytes written since the last fsync
		writeErr  error
		flushedTo uint64
	)
	// fail records the first unrecoverable I/O error, both locally
	// (writeErr makes every later Sync report it) and in failErr so
	// owners that never Sync — group-commit mode with no critical
	// traffic — still observe the failure via Err.
	fail := func(err error) {
		if err == nil || writeErr != nil {
			return
		}
		writeErr = err
		l.failErr.Store(&err)
		l.wakeSyncers(false)
	}
	interval := l.opt.FsyncInterval
	syncMode := interval < 0
	if syncMode {
		// The timer still ticks as a backstop so an owner that stops
		// calling Sync (e.g. mid-shutdown) does not hold dirty pages
		// forever, but at a coarse cadence.
		interval = 50 * time.Millisecond
	}
	timer := time.NewTimer(interval)
	defer timer.Stop()

	// spare recycles the drained batch buffer back under l.buf so the
	// steady state allocates nothing; oversized one-off batches are
	// dropped rather than pinned. An empty buffer stays where it is:
	// swapping it out would trade it for a nil spare.
	var spare []byte
	swapBuf := func() []byte {
		l.mu.Lock()
		defer l.mu.Unlock()
		if len(l.buf) == 0 {
			return nil
		}
		b := l.buf
		l.buf = spare
		spare = nil
		return b
	}

	writePending := func() {
		// Load the sequence before swapping the buffer: a record counted
		// here has already placed its bytes in the buffer (Append orders
		// the two that way), so flushedTo never overcounts. Records that
		// land between the load and the swap are written but undercounted
		// until the next pass. An empty buffer means every counted record
		// was written by an earlier pass, so this pass counts them: a Sync
		// waiting on the watermark must not wait for more appends.
		seq := l.appendSeq.Load()
		b := swapBuf()
		if len(b) == 0 {
			flushedTo = seq
			return
		}
		if _, err := seg.Write(b); err != nil {
			fail(err)
		}
		segBytes += int64(len(b))
		dirty = true
		flushedTo = seq
		if cap(b) <= 4*flushChunk {
			spare = b[:0]
		}
	}

	// fsync advances the durability watermark only while the log is
	// error-free: after a failed write or fsync the watermark freezes,
	// so SyncCritical's fast path can never vouch for a record the disk
	// may have dropped, and every Sync keeps reporting the failure.
	fsync := func() error {
		if dirty {
			if err := seg.Sync(); err != nil {
				fail(err)
			} else {
				dirty = false
			}
		}
		if writeErr == nil {
			l.syncedSeq.Store(flushedTo)
			l.wakeSyncers(false)
		}
		return writeErr
	}

	rotate := func() error {
		if err := fsync(); err != nil {
			return err
		}
		if err := seg.Close(); err != nil {
			fail(err)
			return err
		}
		segIndex++
		f, err := os.OpenFile(filepath.Join(l.opt.Dir, segName(segIndex)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fail(err)
			return err
		}
		syncDir(l.opt.Dir)
		seg = f
		segBytes = 0
		return nil
	}

	for {
		select {
		case <-l.kick:
			writePending()
			if segBytes >= l.opt.SegmentBytes {
				// Failures are recorded by fail() inside rotate.
				_ = rotate()
			}
		case <-l.syncKick:
			writePending()
			// Failures are recorded by fail() inside and reach the
			// waiters through Err.
			_ = fsync()
		case reply := <-l.rotateCh:
			writePending()
			err := rotate()
			reply <- rotateReply{index: segIndex, err: err}
		case <-timer.C:
			writePending()
			if !syncMode {
				// A failed deadline fsync is recorded by fail() inside:
				// the watermark freezes and the owner sees it via Err.
				_ = fsync()
			}
			timer.Reset(interval)
		case <-l.closeCh:
			writePending()
			if !l.crashed.Load() {
				fsync()
			}
			seg.Close()
			l.wakeSyncers(true)
			return
		}
	}
}

// wakeSyncers wakes every Sync waiting on the watermark; exiting marks the
// flusher gone, so waiters the watermark no longer covers give up.
func (l *Log) wakeSyncers(exiting bool) {
	l.syncMu.Lock()
	if exiting {
		l.flusherDone = true
	}
	l.synced.Broadcast()
	l.syncMu.Unlock()
}

// truncateSync truncates path to size and fsyncs the result — the boot
// repair for a torn final-segment tail, run before the next segment is
// created so a torn frame can never end up followed by a successor
// segment.
func truncateSync(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeFileSync writes data to path and fsyncs it before returning.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so entry creations/renames are durable.
// Errors are ignored: not all filesystems support directory fsync, and
// the records themselves are CRC-guarded either way.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
