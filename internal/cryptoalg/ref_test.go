package cryptoalg

import (
	"bytes"
	"crypto/aes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func TestSHA256KnownVectors(t *testing.T) {
	tests := []struct{ in, want string }{
		{"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
		{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
			"248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
	}
	for _, tt := range tests {
		got := SHA256([]byte(tt.in))
		if hex.EncodeToString(got[:]) != tt.want {
			t.Errorf("SHA256(%q) = %x", tt.in, got)
		}
	}
}

func TestSHA256MatchesStdlib(t *testing.T) {
	f := func(msg []byte) bool {
		got := SHA256(msg)
		want := sha256.Sum256(msg)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Explicit multi-block and boundary lengths.
	for _, n := range []int{0, 1, 55, 56, 63, 64, 65, 119, 120, 128, 1000} {
		msg := bytes.Repeat([]byte{0xA5}, n)
		if got, want := SHA256(msg), sha256.Sum256(msg); got != want {
			t.Errorf("len %d: SHA256 mismatch", n)
		}
	}
}

func TestSHA3KnownVectors(t *testing.T) {
	tests := []struct{ in, want string }{
		{"", "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"},
		{"abc", "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"},
	}
	for _, tt := range tests {
		got := SHA3_256([]byte(tt.in))
		if hex.EncodeToString(got[:]) != tt.want {
			t.Errorf("SHA3_256(%q) = %x", tt.in, got)
		}
	}
}

func TestKeccak256KnownVectors(t *testing.T) {
	// Legacy pad 0x01 variant (Ethereum/CryptoNight flavour).
	tests := []struct{ in, want string }{
		{"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"},
		{"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"},
	}
	for _, tt := range tests {
		got := Keccak256([]byte(tt.in))
		if hex.EncodeToString(got[:]) != tt.want {
			t.Errorf("Keccak256(%q) = %x", tt.in, got)
		}
	}
}

func TestKeccakF1600Involution(t *testing.T) {
	// Not an involution, but must change the state and be deterministic.
	var a, b [25]uint64
	a[0] = 1
	b = a
	KeccakF1600(&a)
	if a == b {
		t.Error("permutation left state unchanged")
	}
	c := b
	KeccakF1600(&c)
	if c != a {
		t.Error("permutation not deterministic")
	}
}

func TestAESKnownVector(t *testing.T) {
	// FIPS-197 Appendix B.
	key, _ := hex.DecodeString("2b7e151628aed2a6abf7158809cf4f3c")
	pt, _ := hex.DecodeString("3243f6a8885a308d313198a2e0370734")
	want := "3925841d02dc09fbdc118597196a0b32"
	rk := AESExpandKey128(key)
	dst := make([]byte, 16)
	AESEncryptBlock128(&rk, dst, pt)
	if hex.EncodeToString(dst) != want {
		t.Errorf("AES = %x, want %s", dst, want)
	}
}

func TestAESMatchesStdlib(t *testing.T) {
	f := func(key [16]byte, block [16]byte) bool {
		c, err := aes.NewCipher(key[:])
		if err != nil {
			return false
		}
		want := make([]byte, 16)
		c.Encrypt(want, block[:])
		rk := AESExpandKey128(key[:])
		got := make([]byte, 16)
		AESEncryptBlock128(&rk, got, block[:])
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAESEncryptECB(t *testing.T) {
	key := bytes.Repeat([]byte{0x11}, 16)
	src := bytes.Repeat([]byte{0x22}, 64)
	dst := make([]byte, 64)
	AESEncryptECB(key, dst, src)
	// All four identical blocks must encrypt identically (ECB property).
	for off := 16; off < 64; off += 16 {
		if !bytes.Equal(dst[:16], dst[off:off+16]) {
			t.Error("ECB blocks differ")
		}
	}
	if bytes.Equal(dst[:16], src[:16]) {
		t.Error("ciphertext equals plaintext")
	}
}

func TestBlake2bKnownVectors(t *testing.T) {
	tests := []struct{ in, want string }{
		{"", "786a02f742015903c6c6fd852552d272912f4740e15847618a86e217f71f5419d25e1031afee585313896444934eb04b903a685b1448b755d56f701afe9be2ce"},
		{"abc", "ba80a53f981c4d0d6a2797b69f12f6e94c212f14685ac4b74b12bb6fdbffa2d17d87c5392aab792dc252d5de4533cc9518d38aa8dbf1925ab92386edd4009923"},
	}
	for _, tt := range tests {
		got := Blake2b512([]byte(tt.in))
		if hex.EncodeToString(got[:]) != tt.want {
			t.Errorf("Blake2b512(%q) = %x", tt.in, got)
		}
	}
}

func TestBlake2bMultiBlock(t *testing.T) {
	// Exercise the >1 block path and boundary sizes; check determinism and
	// length handling.
	for _, n := range []int{127, 128, 129, 255, 256, 1000} {
		msg := bytes.Repeat([]byte{7}, n)
		a := Blake2b(msg, 64)
		b := Blake2b(msg, 64)
		if !bytes.Equal(a, b) {
			t.Errorf("len %d: nondeterministic", n)
		}
		if short := Blake2b(msg, 32); !bytes.Equal(short, a[:32]) {
			// BLAKE2b output length is part of the parameter block, so a
			// 32-byte digest must NOT be a truncation of the 64-byte one.
			continue
		} else {
			t.Errorf("len %d: 32-byte digest is a truncation of 64-byte digest", n)
		}
	}
}

func TestBlake2bOutLenValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Blake2b accepted outLen 0")
		}
	}()
	Blake2b(nil, 0)
}

func TestSboxIsPermutation(t *testing.T) {
	sbox := SboxTable()
	var seen [256]bool
	for _, v := range sbox {
		if seen[v] {
			t.Fatalf("S-box value %#x repeated", v)
		}
		seen[v] = true
	}
	// Spot checks from FIPS-197.
	if sbox[0x00] != 0x63 || sbox[0x53] != 0xed {
		t.Errorf("S-box spot check failed: %#x %#x", sbox[0x00], sbox[0x53])
	}
}
