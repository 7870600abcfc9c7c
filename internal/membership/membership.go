package membership

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"kite/internal/llc"
)

// ConfigKey is the reserved key a replica group's configuration lives under.
// Reconfigurations are compare-and-swaps on this key through the ordinary
// per-key Paxos machinery, which is what serialises concurrent membership
// changes per group (one consensus instance per epoch transition). The key
// is the top of the key space; applications must not use it.
const ConfigKey = ^uint64(0)

// Config is one replica group's membership at one configuration epoch: the
// bitmask of member node ids, plus the monotonically increasing epoch that
// names this exact member set. Every protocol frame on the wire carries the
// sender's epoch; frames from other epochs are rejected, which is what makes
// two configurations' quorums unable to interleave (DESIGN.md "Membership").
//
// The zero value is not a valid configuration (no members); Initial builds
// the boot-time config of a fresh deployment.
type Config struct {
	// Epoch counts committed reconfigurations. A fresh deployment boots at
	// epoch 0 with its flag/Options-given member set; every committed
	// add/remove increments it by exactly one.
	Epoch uint32
	// Members is the bitmask of member node ids (bit i set = node i is a
	// member). Ids are stable across reconfigurations: removing node 1 of
	// {0,1,2,3} leaves {0,2,3}, it does not renumber anyone.
	Members uint16
}

// Initial returns the epoch-0 configuration of a fresh n-node deployment:
// members 0..n-1.
func Initial(n int) Config {
	return Config{Epoch: 0, Members: uint16(1<<n) - 1}
}

// N returns the member count — the group's replication degree.
func (c Config) N() int { return bits.OnesCount16(c.Members) }

// Quorum returns the majority size of the member set.
func (c Config) Quorum() int { return c.N()/2 + 1 }

// Mask returns the member bitmask (the "all replicas" mask quorum and
// full-ack logic works against).
func (c Config) Mask() uint16 { return c.Members }

// Contains reports whether node id is a member.
func (c Config) Contains(id uint8) bool {
	return int(id) < llc.MaxNodes && c.Members&(1<<id) != 0
}

// MemberIDs returns the member ids in ascending order.
func (c Config) MemberIDs() []uint8 {
	out := make([]uint8, 0, c.N())
	for id := uint8(0); int(id) < llc.MaxNodes; id++ {
		if c.Members&(1<<id) != 0 {
			out = append(out, id)
		}
	}
	return out
}

// Add returns the successor configuration that includes id: epoch+1,
// members ∪ {id}.
func (c Config) Add(id uint8) Config {
	return Config{Epoch: c.Epoch + 1, Members: c.Members | 1<<id}
}

// Remove returns the successor configuration that excludes id: epoch+1,
// members \ {id}.
func (c Config) Remove(id uint8) Config {
	return Config{Epoch: c.Epoch + 1, Members: c.Members &^ (1 << id)}
}

// Tally counts the distinct members that have answered one quorum round —
// an ABD read or write round, a Paxos phase, a slow-release broadcast —
// against a member set of n. It is a value: protocol state machines embed
// it, reset it per round, and a reconfiguration refits it in place.
type Tally struct {
	got uint16 // members whose reply has been counted
	n   uint8  // size of the member set the round counts against
}

// NewTally starts an empty round over n members.
func NewTally(n int) Tally { return Tally{n: uint8(n)} }

// Add counts from's reply; it reports false for a duplicate, which must not
// be folded again.
func (t *Tally) Add(from uint8) (fresh bool) {
	bit := uint16(1) << from
	if t.got&bit != 0 {
		return false
	}
	t.got |= bit
	return true
}

// Reset empties the tally for the next round over the same member set.
func (t *Tally) Reset() { t.got = 0 }

func (t Tally) quorum() int { return int(t.n)/2 + 1 }

// Reached reports whether a majority of the members has answered.
func (t Tally) Reached() bool { return bits.OnesCount16(t.got) >= t.quorum() }

// Full reports whether every member has answered.
func (t Tally) Full() bool { return bits.OnesCount16(t.got) >= int(t.n) }

// Covers reports whether the counted repliers in mask — a subset singled
// out by the protocol, such as those at the max stamp or those that
// promised — form a majority on their own.
func (t Tally) Covers(mask uint16) bool { return bits.OnesCount16(mask&t.got) >= t.quorum() }

// Reachable reports whether the counted repliers in ok could still grow to
// a majority if every member not yet heard from joined them.
func (t Tally) Reachable(ok uint16) bool {
	heard := bits.OnesCount16(t.got)
	return bits.OnesCount16(ok&t.got)+int(t.n)-heard >= t.quorum()
}

// Missing returns the members of c that have not answered: the round's
// retransmission targets.
func (t Tally) Missing(c Config) uint16 { return c.Members &^ t.got }

// Refit retargets the round at configuration c: replies from members c
// removed stop counting, and the majority is recomputed over c's members.
// A round blocked solely on a removed member is Reached afterwards. Safe
// because majorities of adjacent configurations intersect (DESIGN.md
// "Membership").
func (t *Tally) Refit(c Config) {
	t.got &= c.Members
	t.n = uint8(c.N())
}

func (c Config) String() string {
	return fmt.Sprintf("epoch %d, members %v", c.Epoch, c.MemberIDs())
}

// encodedLen is the wire/store size of a Config: epoch(4) members(2).
const encodedLen = 4 + 2

// Encode returns the stored representation of c — the value committed under
// ConfigKey (6 bytes, far below the value-size limit).
func (c Config) Encode() []byte {
	b := make([]byte, encodedLen)
	binary.LittleEndian.PutUint32(b, c.Epoch)
	binary.LittleEndian.PutUint16(b[4:], c.Members)
	return b
}

// Decode parses an encoded Config. It rejects short/long values and empty
// member sets, so a corrupted (or application-written) config key can never
// install garbage membership.
func Decode(b []byte) (Config, error) {
	if len(b) != encodedLen {
		return Config{}, fmt.Errorf("membership: config value of %d bytes (want %d)", len(b), encodedLen)
	}
	c := Config{
		Epoch:   binary.LittleEndian.Uint32(b),
		Members: binary.LittleEndian.Uint16(b[4:]),
	}
	if c.Members == 0 {
		return Config{}, fmt.Errorf("membership: empty member set")
	}
	return c, nil
}
