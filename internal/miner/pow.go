package miner

import (
	"encoding/binary"
	"fmt"

	"darkarts/internal/cryptoalg"
)

// CryptoNightLite is a scaled-down CryptoNight (Monero's PoW): a Keccak
// sponge seeds an AES-initialised scratchpad, a memory-hard loop mixes the
// scratchpad with AES rounds and XORs, and a final Keccak permutation
// produces the digest. The real algorithm uses a 2 MB scratchpad and 2^19
// iterations; the lite parameters preserve the instruction signature
// (Keccak XOR/rotate + AES shift/xor inside a memory-hard loop, Section
// II-C/II-D) at simulation-friendly cost.
type CryptoNightLite struct {
	ScratchKB  int
	Iterations int
}

// Name implements PoW.
func (c *CryptoNightLite) Name() string {
	return fmt.Sprintf("cryptonight-lite/%dKB/%d", c.ScratchKB, c.Iterations)
}

// HashHeader implements PoW.
func (c *CryptoNightLite) HashHeader(header []byte) Hash {
	// Phase 1: Keccak absorbs the header into the 200-byte state.
	state := cryptoalg.Keccak1600State(header)

	// Phase 2: initialise the scratchpad by AES-encrypting a state-derived
	// block stream (key = first 16 state bytes).
	pad := make([]byte, c.ScratchKB*1024)
	var key [16]byte
	binary.LittleEndian.PutUint64(key[0:], state[0])
	binary.LittleEndian.PutUint64(key[8:], state[1])
	rk := cryptoalg.AESExpandKey128(key[:])
	var block [16]byte
	binary.LittleEndian.PutUint64(block[0:], state[2])
	binary.LittleEndian.PutUint64(block[8:], state[3])
	for off := 0; off+16 <= len(pad); off += 16 {
		cryptoalg.AESEncryptBlock128(&rk, pad[off:off+16], block[:])
		copy(block[:], pad[off:off+16])
	}

	// Phase 3: memory-hard mixing loop. Address, read, AES-round, XOR back.
	a := state[4]
	b := state[5]
	nBlocks := uint64(len(pad) / 16)
	var tmp [16]byte
	for i := 0; i < c.Iterations; i++ {
		idx := (a % nBlocks) * 16
		cryptoalg.AESEncryptBlock128(&rk, tmp[:], pad[idx:idx+16])
		lo := binary.LittleEndian.Uint64(tmp[0:])
		hi := binary.LittleEndian.Uint64(tmp[8:])
		lo ^= a
		hi ^= b
		binary.LittleEndian.PutUint64(pad[idx:], lo)
		binary.LittleEndian.PutUint64(pad[idx+8:], hi)
		a, b = hi, lo^b
	}

	// Phase 4: fold the scratchpad back into the state and re-permute.
	for i := 0; i < len(pad)/8 && i < 17; i++ {
		state[i] ^= binary.LittleEndian.Uint64(pad[i*8:])
	}
	state[17] ^= a
	state[18] ^= b
	cryptoalg.KeccakF1600(&state)

	var out Hash
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], state[i])
	}
	return out
}

// EquihashLite is a scaled-down Equihash (Zcash's PoW): generate N BLAKE2b
// hashes from (header, index) and find an index pair whose XOR has d
// leading zero bits — the k=1 generalized-birthday instance. Solutions are
// (i, j) pairs; verification recomputes two hashes.
type EquihashLite struct {
	N int  // number of candidate hashes per nonce
	D uint // required leading zero bits of the XOR
}

// DefaultEquihash returns the lite parameters used across the repo.
func DefaultEquihash() *EquihashLite { return &EquihashLite{N: 128, D: 12} }

// Name implements PoW (the header-hash role: commitment to a solution).
func (e *EquihashLite) Name() string { return fmt.Sprintf("equihash-lite/%d/%d", e.N, e.D) }

// candidate computes the i-th BLAKE2b candidate hash for the header.
func (e *EquihashLite) candidate(header []byte, i uint32) [64]byte {
	buf := make([]byte, len(header)+4)
	copy(buf, header)
	binary.LittleEndian.PutUint32(buf[len(header):], i)
	return cryptoalg.Blake2b512(buf)
}

// Solution is an Equihash index pair.
type Solution struct {
	I, J uint32
}

// Solve searches for a solution for the header; ok is false when this
// nonce yields none (the miner then increments the header nonce).
func (e *EquihashLite) Solve(header []byte) (Solution, bool) {
	type entry struct {
		prefix uint64
		idx    uint32
	}
	entries := make([]entry, e.N)
	for i := 0; i < e.N; i++ {
		h := e.candidate(header, uint32(i))
		entries[i] = entry{prefix: binary.BigEndian.Uint64(h[:8]), idx: uint32(i)}
	}
	shift := 64 - e.D
	seen := make(map[uint64]uint32, e.N)
	for _, en := range entries {
		bucket := en.prefix >> shift
		if j, ok := seen[bucket]; ok {
			return Solution{I: j, J: en.idx}, true
		}
		seen[bucket] = en.idx
	}
	return Solution{}, false
}

// VerifySolution checks an (i, j) pair against the header.
func (e *EquihashLite) VerifySolution(header []byte, s Solution) bool {
	if s.I == s.J || int(s.I) >= e.N || int(s.J) >= e.N {
		return false
	}
	a := e.candidate(header, s.I)
	b := e.candidate(header, s.J)
	x := binary.BigEndian.Uint64(a[:8]) ^ binary.BigEndian.Uint64(b[:8])
	return x>>(64-e.D) == 0
}

// HashHeader implements PoW for chain integration: the block hash is the
// BLAKE2b of the header (solution search happens separately via Solve).
func (e *EquihashLite) HashHeader(header []byte) Hash {
	h := cryptoalg.Blake2b512(header)
	var out Hash
	copy(out[:], h[:32])
	return out
}

// SHA256d is the Bitcoin-style double-SHA256 PoW, included as a baseline.
type SHA256d struct{}

// Name implements PoW.
func (SHA256d) Name() string { return "sha256d" }

// HashHeader implements PoW.
func (SHA256d) HashHeader(header []byte) Hash {
	first := cryptoalg.SHA256(header)
	return Hash(cryptoalg.SHA256(first[:]))
}

// Mine sweeps nonces from start until the PoW meets the header's target or
// budget nonces are exhausted; it returns the successful nonce.
func Mine(pow PoW, h Header, start, budget uint64) (uint64, bool) {
	for n := uint64(0); n < budget; n++ {
		h.Nonce = start + n
		if pow.HashHeader(h.Marshal()).MeetsTarget(h.Target) {
			return h.Nonce, true
		}
	}
	return 0, false
}
