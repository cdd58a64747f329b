package cryptoalg

import (
	"encoding/binary"
	"math/bits"
)

// KeccakRC returns a copy of the Keccak-f[1600] round constants (consumers
// embedding the permutation in their own ISA programs need the table for
// their data segments).
func KeccakRC() [24]uint64 { return keccakRC }

// Keccak-f[1600] round constants.
var keccakRC = [24]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808a, 0x8000000080008000,
	0x000000000000808b, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
	0x000000000000008a, 0x0000000000000088, 0x0000000080008009, 0x000000008000000a,
	0x000000008000808b, 0x800000000000008b, 0x8000000000008089, 0x8000000000008003,
	0x8000000000008002, 0x8000000000000080, 0x000000000000800a, 0x800000008000000a,
	0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

// keccakRotc holds the rho rotation offsets, indexed [x][y]
// (offset for lane A[x,y], lane index x+5y).
var keccakRotc = [5][5]uint{
	{0, 36, 3, 41, 18},
	{1, 44, 10, 45, 2},
	{62, 6, 43, 15, 61},
	{28, 55, 25, 21, 56},
	{27, 20, 39, 8, 14},
}

// KeccakF1600 applies the Keccak-f[1600] permutation to the 25-lane state.
// This is the paper's Section II-D "core function that performs the SHA-3
// hashing (Keccak) within Monero's CryptoNight algorithm".
func KeccakF1600(a *[25]uint64) {
	var c [5]uint64
	var d [5]uint64
	var b [25]uint64
	for round := 0; round < 24; round++ {
		// θ: column parity then diffusion.
		for x := 0; x < 5; x++ {
			c[x] = a[x] ^ a[x+5] ^ a[x+10] ^ a[x+15] ^ a[x+20]
		}
		for x := 0; x < 5; x++ {
			d[x] = c[(x+4)%5] ^ bits.RotateLeft64(c[(x+1)%5], 1)
		}
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				a[x+5*y] ^= d[x]
			}
		}
		// ρ and π: rotate and permute into b.
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				nx, ny := y, (2*x+3*y)%5
				b[nx+5*ny] = bits.RotateLeft64(a[x+5*y], int(keccakRotc[x][y]))
			}
		}
		// χ: nonlinear step.
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				a[x+5*y] = b[x+5*y] ^ (^b[(x+1)%5+5*y] & b[(x+2)%5+5*y])
			}
		}
		// ι: round constant.
		a[0] ^= keccakRC[round]
	}
}

// keccakSponge absorbs msg with the given rate and domain-separation pad
// byte, then squeezes outLen bytes.
func keccakSponge(msg []byte, rate int, pad byte, outLen int) []byte {
	var state [25]uint64

	// Absorb full blocks.
	for len(msg) >= rate {
		for i := 0; i < rate/8; i++ {
			state[i] ^= binary.LittleEndian.Uint64(msg[i*8:])
		}
		KeccakF1600(&state)
		msg = msg[rate:]
	}
	// Final padded block.
	block := make([]byte, rate)
	copy(block, msg)
	block[len(msg)] = pad
	block[rate-1] |= 0x80
	for i := 0; i < rate/8; i++ {
		state[i] ^= binary.LittleEndian.Uint64(block[i*8:])
	}
	KeccakF1600(&state)

	// Squeeze.
	out := make([]byte, 0, outLen)
	for len(out) < outLen {
		buf := make([]byte, rate)
		for i := 0; i < rate/8; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], state[i])
		}
		out = append(out, buf...)
		if len(out) < outLen {
			KeccakF1600(&state)
		}
	}
	return out[:outLen]
}

// SHA3-256 parameters: rate 136 bytes, capacity 512 bits.
const sha3Rate256 = 136

// SHA3_256 returns the SHA3-256 (FIPS 202, pad 0x06) digest of msg.
func SHA3_256(msg []byte) [32]byte {
	var out [32]byte
	copy(out[:], keccakSponge(msg, sha3Rate256, 0x06, 32))
	return out
}

// Keccak256 returns the legacy Keccak-256 (pad 0x01) digest of msg, the
// variant used by CryptoNight and Ethereum.
func Keccak256(msg []byte) [32]byte {
	var out [32]byte
	copy(out[:], keccakSponge(msg, sha3Rate256, 0x01, 32))
	return out
}
