package proto

import (
	"encoding/binary"
	"fmt"
)

// Client-facing wire frames. External processes talk to a node's session
// server (kite/internal/server) over UDP using these two frames — the same
// lossy, datagram-per-message contract as the replica-to-replica protocol,
// so the client library provides its own retransmissions and the server
// deduplicates by (session id, request id).
//
// Wire format (little endian), one frame per datagram, mirroring the compact
// fixed header + inline value layout of Message:
//
//	request: op(1) flags(1) elen(1) vlen(1) sess(4) seq(8) acked(8) key(8) delta(8)
//	         expected(elen) value(vlen)
//	reply:   status(1) flags(1) vlen(1) pad(1) sess(4) seq(8)
//	         value(vlen)

// Client operation codes. Data ops 0-7 deliberately share core.OpCode's
// numbering (read, write, release, acquire, faa, cas-weak, cas-strong,
// flush) so the server maps them with a cast; codes >= ClientOpOpen are
// control ops handled by the session server itself.
const (
	ClientOpRead uint8 = iota
	ClientOpWrite
	ClientOpRelease
	ClientOpAcquire
	ClientOpFAA
	ClientOpCASWeak
	ClientOpCASStrong
	ClientOpFlush

	// ClientOpOpen leases a node session; the reply's Sess is the new
	// session id. Seq echoes the request for the client's retry matching.
	ClientOpOpen uint8 = 0x10
	// ClientOpClose releases a leased session back to the node's pool.
	ClientOpClose uint8 = 0x11
	// ClientOpPing checks liveness (used by Dial to fail fast when no
	// server is listening). The reply's Value advertises the node's place
	// in the deployment — shard map plus membership epoch (see
	// AppendNodeInfo) — so clients also re-ping to refresh it after a
	// reconfiguration.
	ClientOpPing uint8 = 0x12
	// ClientOpJoin asks the node to add replica Key (a node id) to its
	// group: the server drives the configuration CAS through the node's
	// admin session and replies with the committed config encoded in Value
	// (membership.Config.Encode). Sent by kite-node -join before the
	// joining replica boots.
	ClientOpJoin uint8 = 0x13
	// ClientOpRemove asks the node to remove replica Key (a node id) from
	// its group (kite-cli remove). The reply's Value carries the committed
	// config.
	ClientOpRemove uint8 = 0x14

	// ClientOpBatch marks a batched request frame (ClientBatch): several
	// data ops with consecutive seqs pipelined in one datagram — the remote
	// hot path of DoBatch. Replies remain one frame per op, matched by
	// (sess, seq) exactly like individually sent requests.
	ClientOpBatch uint8 = 0x20
)

var clientOpNames = map[uint8]string{
	ClientOpRead: "read", ClientOpWrite: "write", ClientOpRelease: "release",
	ClientOpAcquire: "acquire", ClientOpFAA: "faa", ClientOpCASWeak: "cas-weak",
	ClientOpCASStrong: "cas-strong", ClientOpFlush: "flush", ClientOpOpen: "open",
	ClientOpClose: "close", ClientOpPing: "ping", ClientOpBatch: "batch",
	ClientOpJoin: "join", ClientOpRemove: "remove",
}

// ClientOpName names a client op code for diagnostics.
func ClientOpName(op uint8) string {
	if n, ok := clientOpNames[op]; ok {
		return n
	}
	return "op?"
}

// ClientDataOp reports whether op is a data operation executed on a leased
// session (as opposed to a control op handled by the server).
func ClientDataOp(op uint8) bool { return op <= ClientOpFlush }

// Reply status codes.
const (
	// ClientOK marks a successful reply.
	ClientOK uint8 = iota
	// ClientErrStopped: the node stopped before the op completed.
	ClientErrStopped
	// ClientErrNoSession: the session id is unknown or its lease expired.
	ClientErrNoSession
	// ClientErrNoCapacity: the node has no free session to lease.
	ClientErrNoCapacity
	// ClientErrBadRequest: the frame was malformed (oversized value, bad op).
	ClientErrBadRequest
	// ClientErrConflict: a join/remove lost a reconfiguration race (or the
	// group is mid-reconfiguration); retry after re-reading the membership.
	ClientErrConflict
	// ClientErrReservedKey: the operation targeted the reserved membership
	// config key.
	ClientErrReservedKey
)

// Client reply flag bits.
const (
	// ClientFlagSwapped on a CAS reply reports that the swap happened.
	ClientFlagSwapped uint8 = 1 << iota
	// ClientFlagControl marks the reply to a control op (ping/open/close).
	// Control replies are matched by Seq alone — an open reply carries the
	// newly leased id in Sess, which the requester cannot key on.
	ClientFlagControl
	// ClientFlagReconfigured on a data reply tells the client the node's
	// group configuration epoch changed since this session last observed
	// it; the client re-pings to refresh its membership view. One-shot per
	// epoch change per session.
	ClientFlagReconfigured
)

// SessionWindow is the width of a client session's window, in seqs: a
// session server accepts a data op only when its seq is below Acked +
// SessionWindow, and the client never sends one at or beyond that bound.
// Each end keeps the session's in-flight ops in a ring of SessionWindow
// slots indexed by seq mod SessionWindow.
const SessionWindow = 256

// ClientRequest is one operation sent by an external client to a node's
// session server.
type ClientRequest struct {
	Op    uint8
	Flags uint8
	// Sess is the server-assigned session id (0 for control ops).
	Sess uint32
	// Seq is the client-assigned request id, strictly sequential from 1
	// per session: the server submits data ops in Seq order (holding back
	// datagrams the network reordered) and dedupes retransmissions.
	Seq uint64
	// Acked tells the server every reply with Seq < Acked has been
	// received, letting it prune its retransmit cache.
	Acked uint64
	Key   uint64
	// Delta is the FAA addend.
	Delta uint64
	// Expected is the CAS comparand.
	Expected []byte
	// Value is the write/release value or CAS new value.
	Value []byte
}

const clientReqHeaderLen = 1 + 1 + 1 + 1 + 4 + 8 + 8 + 8 + 8

// MaxRequestLen is the largest encoded ClientRequest.
const MaxRequestLen = clientReqHeaderLen + 2*MaxValueLen

// AppendMarshal appends the wire encoding of r to dst.
func (r *ClientRequest) AppendMarshal(dst []byte) ([]byte, error) {
	if len(r.Expected) > MaxValueLen || len(r.Value) > MaxValueLen {
		return dst, ErrValueTooLong
	}
	dst = append(dst, r.Op, r.Flags, byte(len(r.Expected)), byte(len(r.Value)))
	dst = binary.LittleEndian.AppendUint32(dst, r.Sess)
	dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, r.Acked)
	dst = binary.LittleEndian.AppendUint64(dst, r.Key)
	dst = binary.LittleEndian.AppendUint64(dst, r.Delta)
	dst = append(dst, r.Expected...)
	dst = append(dst, r.Value...)
	return dst, nil
}

// Unmarshal decodes one request from b. Expected and Value alias b.
func (r *ClientRequest) Unmarshal(b []byte) error {
	if len(b) < clientReqHeaderLen {
		return ErrShortBuffer
	}
	elen, vlen := int(b[2]), int(b[3])
	if elen > MaxValueLen || vlen > MaxValueLen {
		return ErrValueTooLong
	}
	if len(b) < clientReqHeaderLen+elen+vlen {
		return ErrShortBuffer
	}
	r.Op = b[0]
	r.Flags = b[1]
	r.Sess = binary.LittleEndian.Uint32(b[4:])
	r.Seq = binary.LittleEndian.Uint64(b[8:])
	r.Acked = binary.LittleEndian.Uint64(b[16:])
	r.Key = binary.LittleEndian.Uint64(b[24:])
	r.Delta = binary.LittleEndian.Uint64(b[32:])
	r.Expected, r.Value = nil, nil
	if elen > 0 {
		r.Expected = b[clientReqHeaderLen : clientReqHeaderLen+elen]
	}
	if vlen > 0 {
		r.Value = b[clientReqHeaderLen+elen : clientReqHeaderLen+elen+vlen]
	}
	switch {
	case ClientDataOp(r.Op), r.Op == ClientOpOpen, r.Op == ClientOpClose,
		r.Op == ClientOpPing, r.Op == ClientOpJoin, r.Op == ClientOpRemove:
	default:
		return fmt.Errorf("proto: bad client op %d", r.Op)
	}
	return nil
}

// Batched client requests. A ClientBatch carries up to MaxBatchOps data
// operations in a single datagram; the op at index i has sequence number
// Seq+i, so the server's in-order submission, dedup and session window
// treat the batch exactly as if its ops had arrived as consecutive
// individual frames. One wire frame per batch on the request path is the DoBatch
// round-trip win; replies stay per-op so loss of one reply costs one
// retransmission, not the batch.
//
// Wire format (little endian), one frame per datagram:
//
//	batch:  op(1)=ClientOpBatch flags(1) count(2) sess(4) seq(8) acked(8)
//	        then per op: code(1) elen(1) vlen(1) key(8) delta(8)
//	                     expected(elen) value(vlen)

// MaxBatchOps bounds the operation count of one ClientBatch frame.
const MaxBatchOps = 64

// MaxClientFrameLen is the frame-size budget batched requests are packed
// against — conservative for common datacenter MTUs, comfortably under the
// receive buffers.
const MaxClientFrameLen = 1400

const (
	clientBatchHeaderLen   = 1 + 1 + 2 + 4 + 8 + 8
	clientBatchOpHeaderLen = 1 + 1 + 1 + 8 + 8
)

// BatchOp is one data operation inside a ClientBatch.
type BatchOp struct {
	Code uint8
	Key  uint64
	// Delta is the FAA addend.
	Delta uint64
	// Expected is the CAS comparand.
	Expected []byte
	// Value is the write/release value or CAS new value.
	Value []byte
}

// WireLen returns the encoded size of the op inside a batch frame.
func (o BatchOp) WireLen() int { return clientBatchOpHeaderLen + len(o.Expected) + len(o.Value) }

// BatchOverhead is the fixed frame cost of a ClientBatch, for callers
// packing ops against MaxClientFrameLen.
const BatchOverhead = clientBatchHeaderLen

// ClientBatch is a batched request frame: len(Ops) data operations with
// sequence numbers Seq..Seq+len(Ops)-1, sharing one Acked watermark.
type ClientBatch struct {
	Flags uint8
	Sess  uint32
	Seq   uint64
	Acked uint64
	Ops   []BatchOp
}

// AppendMarshal appends the wire encoding of b to dst.
func (b *ClientBatch) AppendMarshal(dst []byte) ([]byte, error) {
	if len(b.Ops) == 0 || len(b.Ops) > MaxBatchOps {
		return dst, fmt.Errorf("proto: batch of %d ops outside [1,%d]", len(b.Ops), MaxBatchOps)
	}
	dst = append(dst, ClientOpBatch, b.Flags)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(b.Ops)))
	dst = binary.LittleEndian.AppendUint32(dst, b.Sess)
	dst = binary.LittleEndian.AppendUint64(dst, b.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, b.Acked)
	for _, op := range b.Ops {
		if !ClientDataOp(op.Code) {
			return dst, fmt.Errorf("proto: op %d not batchable", op.Code)
		}
		if len(op.Expected) > MaxValueLen || len(op.Value) > MaxValueLen {
			return dst, ErrValueTooLong
		}
		dst = append(dst, op.Code, byte(len(op.Expected)), byte(len(op.Value)))
		dst = binary.LittleEndian.AppendUint64(dst, op.Key)
		dst = binary.LittleEndian.AppendUint64(dst, op.Delta)
		dst = append(dst, op.Expected...)
		dst = append(dst, op.Value...)
	}
	return dst, nil
}

// Unmarshal decodes one batch frame from buf. Op payloads alias buf; Ops
// reuses b's slice when its capacity suffices.
func (b *ClientBatch) Unmarshal(buf []byte) error {
	if len(buf) < clientBatchHeaderLen {
		return ErrShortBuffer
	}
	if buf[0] != ClientOpBatch {
		return fmt.Errorf("proto: not a batch frame (op %d)", buf[0])
	}
	count := int(binary.LittleEndian.Uint16(buf[2:]))
	if count == 0 || count > MaxBatchOps {
		return fmt.Errorf("proto: batch of %d ops outside [1,%d]", count, MaxBatchOps)
	}
	b.Flags = buf[1]
	b.Sess = binary.LittleEndian.Uint32(buf[4:])
	b.Seq = binary.LittleEndian.Uint64(buf[8:])
	b.Acked = binary.LittleEndian.Uint64(buf[16:])
	if cap(b.Ops) >= count {
		b.Ops = b.Ops[:count] // reuse the caller's op slice
	} else {
		b.Ops = make([]BatchOp, count)
	}
	off := clientBatchHeaderLen
	for i := 0; i < count; i++ {
		if len(buf) < off+clientBatchOpHeaderLen {
			return ErrShortBuffer
		}
		code, elen, vlen := buf[off], int(buf[off+1]), int(buf[off+2])
		if !ClientDataOp(code) {
			return fmt.Errorf("proto: bad batched op %d", code)
		}
		if elen > MaxValueLen || vlen > MaxValueLen {
			return ErrValueTooLong
		}
		op := BatchOp{
			Code:  code,
			Key:   binary.LittleEndian.Uint64(buf[off+3:]),
			Delta: binary.LittleEndian.Uint64(buf[off+11:]),
		}
		off += clientBatchOpHeaderLen
		if len(buf) < off+elen+vlen {
			return ErrShortBuffer
		}
		if elen > 0 {
			op.Expected = buf[off : off+elen]
		}
		if vlen > 0 {
			op.Value = buf[off+elen : off+elen+vlen]
		}
		off += elen + vlen
		b.Ops[i] = op
	}
	return nil
}

// Node info: a ping reply's Value advertises the node's place in the
// deployment as [groups(1) group(1) epoch(4) members(2)] — its shard
// coordinates plus its replica group's membership epoch and member bitmask.
// Shorter values degrade gracefully: an empty Value means unsharded (one
// group, group 0) at an unknown epoch; a 2-byte value is the pre-membership
// shard-info encoding. Group counts are bounded by a byte — far above any
// plausible deployment.

// MaxGroups bounds the replica-group count of a sharded deployment.
const MaxGroups = 255

const nodeInfoLen = 1 + 1 + 4 + 2

// AppendNodeInfo appends the node-info encoding to dst. Unsharded
// deployments pass groups <= 1 (encoded as 1 group, group 0).
func AppendNodeInfo(dst []byte, groups, group int, epoch uint32, members uint16) []byte {
	if groups <= 1 {
		groups, group = 1, 0
	}
	dst = append(dst, uint8(groups), uint8(group))
	dst = binary.LittleEndian.AppendUint32(dst, epoch)
	return binary.LittleEndian.AppendUint16(dst, members)
}

// ParseShardInfo decodes a ping reply's shard coordinates, defaulting to
// the unsharded (1, 0) when absent.
func ParseShardInfo(v []byte) (groups, group int) {
	if len(v) < 2 {
		return 1, 0
	}
	return int(v[0]), int(v[1])
}

// ParseNodeInfo decodes a ping reply's full node info. Replies without the
// membership fields report epoch 0 and an empty member mask (unknown).
func ParseNodeInfo(v []byte) (groups, group int, epoch uint32, members uint16) {
	groups, group = ParseShardInfo(v)
	if len(v) < nodeInfoLen {
		return groups, group, 0, 0
	}
	return groups, group, binary.LittleEndian.Uint32(v[2:]), binary.LittleEndian.Uint16(v[6:])
}

// ClientReply is the session server's response to one ClientRequest,
// matched by (Sess, Seq).
type ClientReply struct {
	Status uint8
	Flags  uint8
	Sess   uint32
	Seq    uint64
	// Value is the result value: the value read, or the previous value for
	// FAA/CAS. For ClientOpOpen it is empty and Sess carries the new id.
	Value []byte
}

const clientRepHeaderLen = 1 + 1 + 1 + 1 + 4 + 8

// AppendMarshal appends the wire encoding of p to dst.
func (p *ClientReply) AppendMarshal(dst []byte) ([]byte, error) {
	if len(p.Value) > MaxValueLen {
		return dst, ErrValueTooLong
	}
	dst = append(dst, p.Status, p.Flags, byte(len(p.Value)), 0)
	dst = binary.LittleEndian.AppendUint32(dst, p.Sess)
	dst = binary.LittleEndian.AppendUint64(dst, p.Seq)
	dst = append(dst, p.Value...)
	return dst, nil
}

// Unmarshal decodes one reply from b. Value aliases b.
func (p *ClientReply) Unmarshal(b []byte) error {
	if len(b) < clientRepHeaderLen {
		return ErrShortBuffer
	}
	vlen := int(b[2])
	if vlen > MaxValueLen {
		return ErrValueTooLong
	}
	if len(b) < clientRepHeaderLen+vlen {
		return ErrShortBuffer
	}
	p.Status = b[0]
	p.Flags = b[1]
	p.Sess = binary.LittleEndian.Uint32(b[4:])
	p.Seq = binary.LittleEndian.Uint64(b[8:])
	p.Value = nil
	if vlen > 0 {
		p.Value = b[clientRepHeaderLen : clientRepHeaderLen+vlen]
	}
	return nil
}
