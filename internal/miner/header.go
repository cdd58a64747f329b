package miner

import "encoding/binary"

// Hash is a 32-byte digest.
type Hash [32]byte

// Header is a block header; its serialization is the ISA miners' input.
type Header struct {
	Height     uint64
	Prev       Hash
	MerkleRoot Hash
	Time       int64
	Target     uint64
	Nonce      uint64
}

// Marshal serializes the header deterministically.
func (h Header) Marshal() []byte {
	buf := make([]byte, 8+32+32+8+8+8)
	binary.LittleEndian.PutUint64(buf[0:], h.Height)
	copy(buf[8:], h.Prev[:])
	copy(buf[40:], h.MerkleRoot[:])
	binary.LittleEndian.PutUint64(buf[72:], uint64(h.Time))
	binary.LittleEndian.PutUint64(buf[80:], h.Target)
	binary.LittleEndian.PutUint64(buf[88:], h.Nonce)
	return buf
}
