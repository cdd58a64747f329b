// Package miner implements the cryptocurrency miners the paper evaluates
// against (Sections II, V), judged only by what they execute: throttled
// and multi-threaded Monero and Zcash rate models for the OS-layer
// experiments, Monero-style (Keccak + AES) and Zcash-style (BLAKE2b) ISA
// mining programs for instruction-signature experiments, each checked
// against a native Go companion, the block header they hash, and the
// Table IV profitability model.
package miner
