package microcode

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"darkarts/internal/isa"
)

// tableGen hands out the per-table generation numbers. A plain counter —
// not host time, not randomness — so runs stay reproducible; uniqueness
// is all consumers need. Generation values are cache-identity tags only,
// never simulation results.
var tableGen atomic.Uint64

// TagTable is an immutable set of opcodes the decode stage tags. A nil
// *TagTable tags nothing.
//
// Every table carries a unique, non-zero generation number assigned at
// construction. Consumers that pre-compute per-block tag counts (the CPU
// package's basic-block translation cache) key those counts by the
// generation: a firmware update installs a table with a different
// generation, so stale pre-counts are detected with one integer compare
// instead of a table diff.
type TagTable struct {
	name string           // immutable after construction
	gen  uint64           // cache-identity tag, re-assigned on rebuild
	tags [isa.NumOps]bool // immutable after construction
}

// NewTagTable builds a table tagging all opcodes whose class intersects
// classes, plus any explicitly listed extra opcodes.
func NewTagTable(name string, classes isa.Class, extra ...isa.Op) *TagTable {
	t := &TagTable{name: name, gen: tableGen.Add(1)}
	for _, op := range isa.AllOps() {
		if op.Classes()&classes != 0 {
			t.tags[op] = true
		}
	}
	for _, op := range extra {
		if op.Valid() {
			t.tags[op] = true
		}
	}
	return t
}

// Name returns the table's identifier (e.g. "RSX").
func (t *TagTable) Name() string {
	if t == nil {
		return "none"
	}
	return t.name
}

// Gen returns the table's generation number: unique, non-zero, and stable
// for the table's lifetime. The nil table is generation 0. Consumers cache
// derived data (per-block tag pre-counts) keyed by this value and drop it
// when the installed table's generation changes.
//
//cryptojack:hotpath
func (t *TagTable) Gen() uint64 {
	if t == nil {
		return 0
	}
	return t.gen
}

// Tagged reports whether the decoder should set the RSX bit for op.
//
//cryptojack:hotpath
func (t *TagTable) Tagged(op isa.Op) bool {
	if t == nil || !op.Valid() {
		return false
	}
	return t.tags[op]
}

// Ops returns the tagged opcodes in declaration order.
func (t *TagTable) Ops() []isa.Op {
	if t == nil {
		return nil
	}
	var ops []isa.Op
	for _, op := range isa.AllOps() {
		if t.tags[op] {
			ops = append(ops, op)
		}
	}
	return ops
}

// String renders the table for logs: "RSX{ROL,ROR,...}".
func (t *TagTable) String() string {
	ops := t.Ops()
	names := make([]string, len(ops))
	for i, op := range ops {
		names[i] = op.String()
	}
	sort.Strings(names)
	return fmt.Sprintf("%s{%s}", t.Name(), strings.Join(names, ","))
}

// RSX returns the paper's default tag set: rotate, shift, and exclusive-or
// instructions (Section IV-A).
func RSX() *TagTable {
	return NewTagTable("RSX", isa.ClassRotate|isa.ClassShift|isa.ClassXor)
}

// RSXO returns the extended tag set that additionally tracks OR, defeating
// XOR→OR re-encoding (Section VI-B, Figure 11).
func RSXO() *TagTable {
	return NewTagTable("RSXO", isa.ClassRotate|isa.ClassShift|isa.ClassXor|isa.ClassOr)
}

// RotateOnly returns a table tagging only rotates. It exists for the
// ablation benchmark showing why the aggregated RSX set is needed against
// rotate→shift|or obfuscation.
func RotateOnly() *TagTable {
	return NewTagTable("ROT", isa.ClassRotate)
}

// FirmwareUpdate is a pending microcode update, mirroring the OS-initiated
// firmware update flow. Updates are validated then committed atomically to
// an UpdateTarget (the CPU package implements it).
type FirmwareUpdate struct {
	Version uint32
	Table   *TagTable
}

// UpdateTarget is the hardware interface accepting microcode updates.
type UpdateTarget interface {
	// InstallTagTable atomically replaces the decoder tag table.
	InstallTagTable(*TagTable)
}

// Apply validates and commits the update. A firmware image with no tag table
// or an empty tag set is rejected: shipping it would silently disable the
// defense.
func (u FirmwareUpdate) Apply(target UpdateTarget) error {
	if target == nil {
		return fmt.Errorf("microcode update v%d: nil target", u.Version)
	}
	if u.Table == nil || len(u.Table.Ops()) == 0 {
		return fmt.Errorf("microcode update v%d: empty tag table", u.Version)
	}
	target.InstallTagTable(u.Table)
	return nil
}
