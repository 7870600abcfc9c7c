package es

import (
	"bytes"
	"encoding/binary"
	"testing"

	"kite/internal/kvs"
	"kite/internal/llc"
	"kite/internal/proto"
)

// This file attacks the local-read valid bit (DESIGN.md "Local reads") at
// the protocol layer, below the node event loops: real kvs.Store replicas,
// a real Tracker at the origin, the real HandleWrite/HandleValidate
// replica handlers, and an adversarial scheduler (the fuzzer) choosing the
// delivery order — including duplication, reordering, writes overtaking
// their own validates, sync installs racing validation, epoch bumps and
// crash-replay.
//
// The checked property is the fast path's entire safety argument:
//
//	valid ⇒ the entry holds the value of a relaxed write that every
//	        replica has acknowledged (a linearization point in the past),
//	        at that write's exact stamp.
//
// plus the two fencing properties the acquire path leans on: an epoch-
// bumped machine gets no hits on out-of-epoch keys, and a replayed
// (crash-restarted) store boots with every key invalid.

const (
	fuzzNodes = 3
	fuzzKeys  = 4
)

// fuzzWrite is one relaxed write issued by the origin (node 0).
type fuzzWrite struct {
	opID uint64
	key  uint64
	st   llc.Stamp
	val  []byte
}

type fuzzState struct {
	stores [fuzzNodes]*kvs.Store
	epochs [fuzzNodes]uint64
	tr     *Tracker

	writes []*fuzzWrite
	// undelivered writes per remote replica (indices into writes). Delivery
	// does not remove — the fuzzer may re-deliver, modelling retransmission.
	pendWrite [fuzzNodes][]int
	// acks awaiting the origin: (write index, acking replica).
	pendAck [][2]int
	// undelivered validate pairs per replica (origin included — the real
	// loopback delivery is also asynchronous w.r.t. other handlers).
	pendVal [fuzzNodes][]uint64

	fullyAcked map[uint64]bool   // packed stamp -> every replica acked
	relaxedVal map[uint64][]byte // packed stamp -> written value

	nextVal uint64
}

func newFuzzState() *fuzzState {
	fs := &fuzzState{
		tr:         NewTracker(fuzzNodes),
		fullyAcked: make(map[uint64]bool),
		relaxedVal: make(map[uint64][]byte),
	}
	for i := range fs.stores {
		fs.stores[i] = kvs.New(64)
	}
	return fs
}

func (fs *fuzzState) issueWrite(key uint64) {
	fs.nextVal++
	val := make([]byte, 8)
	binary.LittleEndian.PutUint64(val, fs.nextVal)
	st := fs.stores[0].LocalWrite(key, val, 0)
	w := &fuzzWrite{opID: uint64(len(fs.writes) + 1), key: key, st: st, val: val}
	fs.writes = append(fs.writes, w)
	fs.tr.Add(w.opID, key, 0)
	for r := 1; r < fuzzNodes; r++ {
		fs.pendWrite[r] = append(fs.pendWrite[r], len(fs.writes)-1)
	}
}

func (fs *fuzzState) deliverWrite(r, pick int) {
	if len(fs.pendWrite[r]) == 0 {
		return
	}
	w := fs.writes[fs.pendWrite[r][pick%len(fs.pendWrite[r])]]
	m := proto.Message{Kind: proto.KindESWrite, From: 0, Key: w.key, OpID: w.opID, Stamp: w.st, Value: w.val}
	HandleWrite(fs.stores[r], &m, uint8(r))
	fs.pendAck = append(fs.pendAck, [2]int{int(w.opID) - 1, r})
}

func (fs *fuzzState) deliverAck(pick int) {
	if len(fs.pendAck) == 0 {
		return
	}
	i := pick % len(fs.pendAck)
	wi, from := fs.pendAck[i][0], fs.pendAck[i][1]
	fs.pendAck = append(fs.pendAck[:i], fs.pendAck[i+1:]...)
	w := fs.writes[wi]
	if fs.tr.Ack(w.opID, uint8(from)) != nil {
		// Full ack: the origin queues a validate for every replica (its own
		// store included, via the loopback flush).
		fs.fullyAcked[w.st.Pack()] = true
		fs.relaxedVal[w.st.Pack()] = w.val
		for r := 0; r < fuzzNodes; r++ {
			fs.pendVal[r] = AppendValidate(fs.pendVal[r], w.key, w.st)
		}
	}
}

func (fs *fuzzState) deliverValidate(r, pick int) {
	pairs := len(fs.pendVal[r]) / 2
	if pairs == 0 {
		return
	}
	i := (pick % pairs) * 2
	m := proto.Message{Kind: proto.KindESValidate, Origins: fs.pendVal[r][i : i+2 : i+2]}
	fs.pendVal[r] = append(fs.pendVal[r][:i], fs.pendVal[r][i+2:]...)
	HandleValidate(fs.stores[r], &m)
}

// syncInstall models the install half of an ABD write-back / Paxos commit
// at one replica: a strictly newer stamp minted with a non-origin machine
// id, applied through the same Store.Apply the live handlers use. Sync
// stamps never enter relaxedVal/fullyAcked — if one ever surfaces from
// ViewValid, the invariant trips.
func (fs *fuzzState) syncInstall(r int, key uint64) {
	var buf [kvs.MaxValueLen]byte
	_, st, _, _ := fs.stores[r].View(key, buf[:])
	st = st.Next(uint8(8 + r))
	fs.stores[r].Apply(key, []byte("sync"), st)
}

// replay models a crash-restart: the store is rebuilt by re-applying every
// surviving (key, value, stamp) through Store.Apply, exactly like WAL
// replay and the catch-up sweep do — so every key must boot invalid.
func (fs *fuzzState) replay(t *testing.T, r int) {
	t.Helper()
	var buf [kvs.MaxValueLen]byte
	fresh := kvs.New(64)
	for k := uint64(0); k < fuzzKeys; k++ {
		if val, st, _, ok := fs.stores[r].View(k, buf[:]); ok {
			fresh.Apply(k, val, st)
		}
	}
	fs.stores[r] = fresh
	for k := uint64(0); k < fuzzKeys; k++ {
		if _, _, ok := fs.stores[r].ViewValid(k, fs.epochs[r], buf[:]); ok {
			t.Fatalf("replica %d: key %d valid immediately after replay", r, k)
		}
	}
}

// check asserts the safety property at every replica and key.
func (fs *fuzzState) check(t *testing.T) {
	t.Helper()
	var buf [kvs.MaxValueLen]byte
	for r := 0; r < fuzzNodes; r++ {
		for k := uint64(0); k < fuzzKeys; k++ {
			val, st, ok := fs.stores[r].ViewValid(k, fs.epochs[r], buf[:])
			if !ok {
				continue
			}
			if fs.epochs[r] != 0 {
				// The model never advances key epochs, so a bumped machine
				// epoch must fence off every hit.
				t.Fatalf("replica %d: key %d served locally after epoch bump to %d", r, k, fs.epochs[r])
			}
			if !fs.fullyAcked[st.Pack()] {
				t.Fatalf("replica %d: key %d valid at stamp %+v which was never fully acked", r, k, st)
			}
			if want := fs.relaxedVal[st.Pack()]; !bytes.Equal(val, want) {
				t.Fatalf("replica %d: key %d valid with value %q, want %q (stamp %+v)", r, k, val, want, st)
			}
		}
	}
}

// FuzzValidBit drives random interleavings of write-broadcast, ack,
// full-ack validation, sync installs, proactive invalidation, epoch bumps
// and crash-replay, checking after every step that a locally-readable
// (valid) entry always exposes a fully-replicated relaxed write's value.
func FuzzValidBit(f *testing.F) {
	// Happy path: write, deliver everywhere, ack, validate everywhere.
	f.Add([]byte{0, 0, 1, 1, 0, 1, 2, 0, 2, 0, 2, 0, 3, 0, 0, 3, 1, 0, 3, 2, 0})
	// Validate racing a newer write; replay; epoch bump.
	f.Add([]byte{0, 1, 1, 1, 0, 2, 0, 0, 1, 7, 1, 0, 6, 2, 0, 3, 1, 0, 5, 1, 1})
	// Sync install racing validation; proactive invalidate.
	f.Add([]byte{0, 2, 1, 1, 0, 1, 2, 0, 2, 0, 2, 0, 4, 1, 2, 3, 1, 0, 5, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := newFuzzState()
		for i := 0; i+2 < len(data); i += 3 {
			op, a, b := data[i]%8, int(data[i+1]), int(data[i+2])
			switch op {
			case 0:
				fs.issueWrite(uint64(a) % fuzzKeys)
			case 1:
				fs.deliverWrite(1+a%(fuzzNodes-1), b)
			case 2:
				fs.deliverAck(a)
			case 3:
				fs.deliverValidate(a%fuzzNodes, b)
			case 4:
				fs.syncInstall(a%fuzzNodes, uint64(b)%fuzzKeys)
			case 5:
				fs.stores[a%fuzzNodes].Invalidate(uint64(b) % fuzzKeys)
			case 6:
				fs.epochs[a%fuzzNodes]++
			case 7:
				fs.replay(t, a%fuzzNodes)
			}
			fs.check(t)
		}
	})
}

// TestValidBitHappyPath pins the positive direction the fuzzer cannot: a
// fully-acked, validated write IS served by ViewValid, and each documented
// transition — newer install, proactive invalidation, stamp-mismatched
// (stale) validate — takes it off the fast path again.
func TestValidBitHappyPath(t *testing.T) {
	fs := newFuzzState()
	var buf [kvs.MaxValueLen]byte

	fs.issueWrite(2)
	for r := 1; r < fuzzNodes; r++ {
		fs.deliverWrite(r, 0)
	}
	fs.deliverAck(0)
	fs.deliverAck(0)
	for r := 0; r < fuzzNodes; r++ {
		fs.deliverValidate(r, 0)
	}
	w := fs.writes[0]
	for r := 0; r < fuzzNodes; r++ {
		val, st, ok := fs.stores[r].ViewValid(2, 0, buf[:])
		if !ok || !bytes.Equal(val, w.val) || st != w.st {
			t.Fatalf("replica %d: validated key not served: ok=%v val=%q st=%+v", r, ok, val, st)
		}
	}

	// A proactive invalidation (ABD round 1 observed) drops the hit.
	fs.stores[1].Invalidate(2)
	if _, _, ok := fs.stores[1].ViewValid(2, 0, buf[:]); ok {
		t.Fatal("hit survived Invalidate")
	}

	// A newer install drops the hit, and the OLD write's validate cannot
	// resurrect it (stamp mismatch).
	fs.syncInstall(2, 2)
	if _, _, ok := fs.stores[2].ViewValid(2, 0, buf[:]); ok {
		t.Fatal("hit survived a newer install")
	}
	fs.stores[2].Validate(2, w.st)
	if _, _, ok := fs.stores[2].ViewValid(2, 0, buf[:]); ok {
		t.Fatal("stale validate resurrected a superseded value")
	}

	// Epoch fencing: the hit on replica 0 dies with a machine epoch bump.
	fs.epochs[0]++
	if _, _, ok := fs.stores[0].ViewValid(2, fs.epochs[0], buf[:]); ok {
		t.Fatal("hit survived an epoch bump")
	}
}
