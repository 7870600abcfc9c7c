// Package gen is the benchmark's seeded workload generator: operation mixes
// in the paper's §8.1 terms, uniform and zipfian key choice, and RMWs on a
// counter range disjoint from the value keys. The system under test sees
// only the kite.Op stream a Spec and a seed generate; the same (Spec, seed,
// session) always yields the same stream, byte for byte.
package gen

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"

	"kite"
)

// Mix is an operation mix with internal/bench.Mix semantics: WriteRatio
// counts RMWs, releases and relaxed writes; SyncFrac applies to the non-RMW
// accesses; RMWFrac is a share of all ops (and a subset of the writes).
type Mix struct {
	WriteRatio float64
	SyncFrac   float64
	RMWFrac    float64
}

// Shares returns the exact probability of each generated class, indexed by
// kite.OpCode (OpRead..OpFAA).
func (m Mix) Shares() [5]float64 {
	w := math.Max(m.WriteRatio-m.RMWFrac, 0)
	r := math.Max(1-m.WriteRatio, 0)
	var s [5]float64
	s[kite.OpFAA] = m.RMWFrac
	s[kite.OpRelease] = w * m.SyncFrac
	s[kite.OpWrite] = w * (1 - m.SyncFrac)
	s[kite.OpAcquire] = r * m.SyncFrac
	s[kite.OpRead] = r * (1 - m.SyncFrac)
	return s
}

// Spec describes one generated stream family.
type Spec struct {
	Mix Mix
	// Keys is the number of value keys, a power of two; value keys are
	// KeyBase..KeyBase+Keys-1.
	Keys    uint64
	KeyBase uint64
	// Theta is the zipfian skew over the value keys (YCSB's constant; 0 is
	// uniform). Ranks are scattered over the key range by an odd
	// multiplier, so hot keys spread over buckets and shard groups.
	Theta float64
	// Counters is the number of FAA counters, a power of two, at
	// CounterBase..CounterBase+Counters-1. The range must not overlap the
	// value keys: counters hold 8-byte integers, value keys hold payloads.
	Counters    uint64
	CounterBase uint64
}

// Validate reports a Spec the generator cannot honour.
func (s Spec) Validate() error {
	switch {
	case s.Keys == 0 || s.Keys&(s.Keys-1) != 0:
		return fmt.Errorf("gen: Keys %d is not a power of two", s.Keys)
	case s.Counters == 0 || s.Counters&(s.Counters-1) != 0:
		return fmt.Errorf("gen: Counters %d is not a power of two", s.Counters)
	case s.Theta < 0 || s.Theta >= 1:
		return fmt.Errorf("gen: Theta %v outside [0,1)", s.Theta)
	case s.KeyBase < s.CounterBase+s.Counters && s.CounterBase < s.KeyBase+s.Keys:
		return fmt.Errorf("gen: counter range overlaps value keys")
	}
	return nil
}

// Op is one generated operation in compact form; Kite expands it.
type Op struct {
	Code kite.OpCode
	Key  uint64
}

// Kite returns the kite.Op for o: writes and releases carry val, FAAs add 1.
func (o Op) Kite(val []byte) kite.Op {
	op := kite.Op{Code: o.Code, Key: o.Key}
	switch o.Code {
	case kite.OpWrite, kite.OpRelease:
		op.Value = val
	case kite.OpFAA:
		op.Delta = 1
	}
	return op
}

// Stream generates n ops for one session. Sessions of one run share the
// seed and differ in session, so their streams are independent.
func Stream(s Spec, seed uint64, session, n int) []Op {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^uint64(session)))
	sh := s.Mix.Shares()
	tFAA := sh[kite.OpFAA]
	tRel := tFAA + sh[kite.OpRelease]
	tWr := tRel + sh[kite.OpWrite]
	tAcq := tWr + sh[kite.OpAcquire]
	var z *zipf
	if s.Theta > 0 {
		z = newZipf(s.Keys, s.Theta)
	}
	ops := make([]Op, n)
	for i := range ops {
		var code kite.OpCode
		switch r := rng.Float64(); {
		case r < tFAA:
			code = kite.OpFAA
		case r < tRel:
			code = kite.OpRelease
		case r < tWr:
			code = kite.OpWrite
		case r < tAcq:
			code = kite.OpAcquire
		default:
			code = kite.OpRead
		}
		var key uint64
		switch {
		case code == kite.OpFAA:
			key = s.CounterBase + rng.Uint64()&(s.Counters-1)
		case z != nil:
			key = s.KeyBase + KeyOfRank(z.rank(rng.Float64()), s.Keys)
		default:
			key = s.KeyBase + rng.Uint64()&(s.Keys-1)
		}
		ops[i] = Op{Code: code, Key: key}
	}
	return ops
}

// Bytes is the canonical encoding of a stream: 9 bytes per op. The
// byte-identity guarantee is stated (and tested) on it.
func Bytes(ops []Op) []byte {
	b := make([]byte, 0, 9*len(ops))
	for _, o := range ops {
		b = append(b, byte(o.Code))
		b = binary.LittleEndian.AppendUint64(b, o.Key)
	}
	return b
}

// KeyOfRank maps a zipfian popularity rank (0 is hottest) to its key offset
// in a power-of-two range: multiplying by an odd constant is a bijection
// modulo a power of two.
func KeyOfRank(rank, keys uint64) uint64 { return rank * 0x9e3779b1 & (keys - 1) }

// zipf draws ranks with P(rank i) proportional to 1/(i+1)^theta for theta in
// (0,1) — the range Go's rand.Zipf does not cover — by the closed-form
// inversion of Gray et al. that YCSB uses.
type zipf struct {
	n                       float64
	theta, alpha, eta, zeta float64
	half                    float64 // 0.5^theta
}

func newZipf(n uint64, theta float64) *zipf {
	z := &zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta), half: math.Pow(0.5, theta)}
	z.zeta = Zeta(n, theta)
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - (1+z.half)/z.zeta)
	return z
}

func (z *zipf) rank(u float64) uint64 {
	uz := u * z.zeta
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	r := uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= uint64(z.n) {
		r = uint64(z.n) - 1
	}
	return r
}

// Zeta is the generalised harmonic number sum_{i=1..n} i^-theta: 1/Zeta is
// the probability mass of the hottest key.
func Zeta(n uint64, theta float64) float64 {
	var s float64
	for i := uint64(1); i <= n; i++ {
		s += math.Pow(float64(i), -theta)
	}
	return s
}
