package store

import (
	"encoding/base64"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// The outcome digest is a bloom filter over the problem keys this store holds
// solved outcomes for, compact enough to ship in /v1/stats and over the rpc
// surface. The router uses it to prefer a backend that already has a
// problem's knowledge over the plain ring owner. False positives only cost a
// wasted preference (the backend computes from scratch like any other);
// false negatives cannot happen, so a digest miss never hides warm state the
// ring owner would have found.
//
// Wire format: "b1:<k>:<mbits>:<base64url-nopad bits>", where k is the probe
// count and mbits the filter width in bits. An empty string means "no
// digest" (no solved outcomes, or a peer too old to serve one) and claims no
// keys.

const (
	bloomBitsPerKey = 12 // with k=8 probes: ~0.3% false-positive rate
	bloomProbes     = 8
	bloomMinBits    = 64
)

// digestCache is the store's lazily rebuilt outcome digest. gen increments on
// every accepted outcome append (and once at load), so consumers can poll
// generation cheaply and refetch the encoded digest only on change.
type digestCache struct {
	genCtr   atomic.Uint64
	mu       sync.Mutex
	builtGen uint64
	encoded  string
}

func (d *digestCache) bump() { d.genCtr.Add(1) }

// DigestGen returns the outcome-digest generation: it changes exactly when
// the set of solved problem keys may have changed.
func (s *Store) DigestGen() uint64 {
	if s == nil {
		return 0
	}
	return s.digest.genCtr.Load()
}

// OutcomeDigest returns the bloom digest of the problem keys with persisted
// outcomes, plus the generation it reflects. The digest is rebuilt lazily on
// generation change and cached.
func (s *Store) OutcomeDigest() (string, uint64) {
	if s == nil {
		return "", 0
	}
	gen := s.digest.genCtr.Load()
	s.digest.mu.Lock()
	if s.digest.builtGen == gen && gen != 0 {
		enc := s.digest.encoded
		s.digest.mu.Unlock()
		return enc, gen
	}
	s.digest.mu.Unlock()

	s.mu.RLock()
	keys := make(map[string]struct{}, len(s.outcomes))
	for k := range s.outcomes {
		if pk, _, ok := cutNul(k); ok {
			keys[pk] = struct{}{}
		}
	}
	s.mu.RUnlock()
	enc := buildBloom(keys)

	s.digest.mu.Lock()
	if gen >= s.digest.builtGen {
		s.digest.builtGen = gen
		s.digest.encoded = enc
	}
	s.digest.mu.Unlock()
	return enc, gen
}

// buildBloom encodes the key set as the digest wire form; empty set encodes
// as "" (claims nothing).
func buildBloom(keys map[string]struct{}) string {
	if len(keys) == 0 {
		return ""
	}
	mbits := uint64(len(keys) * bloomBitsPerKey)
	if mbits < bloomMinBits {
		mbits = bloomMinBits
	}
	mbits = (mbits + 7) &^ 7 // whole bytes
	bits := make([]byte, mbits/8)
	for k := range keys {
		h1, h2 := bloomHashes(k)
		for i := uint64(0); i < bloomProbes; i++ {
			bit := (h1 + i*h2) % mbits
			bits[bit/8] |= 1 << (bit % 8)
		}
	}
	return (&BloomDigest{probes: bloomProbes, mbits: mbits, bits: bits}).String()
}

// bloomHashes derives the double-hashing pair for a key: FNV-1a 64 and an
// odd-forced mix of it (odd step ⇒ full period modulo any power of two, and
// harmless for other widths).
func bloomHashes(key string) (h1, h2 uint64) {
	h := fnv.New64a()
	h.Write([]byte(key))
	h1 = h.Sum64()
	h2 = (h1*0x9E3779B97F4A7C15 ^ h1>>29) | 1
	return
}

// BloomDigest is a parsed outcome digest, ready for membership probes.
type BloomDigest struct {
	probes uint64
	mbits  uint64
	bits   []byte
}

// ParseBloomDigest parses the digest wire form. An empty string parses to
// nil (claims nothing) without error.
func ParseBloomDigest(s string) (*BloomDigest, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.SplitN(s, ":", 4)
	if len(parts) != 4 || parts[0] != "b1" {
		return nil, fmt.Errorf("store: bad digest format")
	}
	k, err := strconv.ParseUint(parts[1], 10, 8)
	if err != nil || k == 0 {
		return nil, fmt.Errorf("store: bad digest probe count")
	}
	mbits, err := strconv.ParseUint(parts[2], 10, 32)
	if err != nil || mbits == 0 || mbits%8 != 0 {
		return nil, fmt.Errorf("store: bad digest width")
	}
	bits, err := base64.RawURLEncoding.DecodeString(parts[3])
	if err != nil || uint64(len(bits)) != mbits/8 {
		return nil, fmt.Errorf("store: bad digest bits")
	}
	d := &BloomDigest{probes: k, mbits: mbits, bits: bits}
	// Only the canonical rendering parses (no leading zeros, no stray
	// base64 padding bits), so a digest has exactly one wire form.
	if d.String() != s {
		return nil, fmt.Errorf("store: non-canonical digest")
	}
	return d, nil
}

// String renders the digest in its wire form; a nil digest renders as "",
// the digest that claims nothing.
func (d *BloomDigest) String() string {
	if d == nil {
		return ""
	}
	return fmt.Sprintf("b1:%d:%d:%s", d.probes, d.mbits, base64.RawURLEncoding.EncodeToString(d.bits))
}

// Contains reports whether the digest claims the key. A nil digest claims
// nothing.
func (d *BloomDigest) Contains(key string) bool {
	if d == nil {
		return false
	}
	h1, h2 := bloomHashes(key)
	for i := uint64(0); i < d.probes; i++ {
		bit := (h1 + i*h2) % d.mbits
		if d.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}
