package cpu

import (
	"fmt"

	"darkarts/internal/mem"
)

// Mode selects the execution engine.
type Mode int

// Execution modes.
const (
	ModeFast Mode = iota + 1
	ModeDetailed
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeFast:
		return "fast"
	case ModeDetailed:
		return "detailed"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config describes the modelled processor. The defaults follow the paper's
// Table I (4-core out-of-order x86 at 2.0 GHz with the listed cache
// hierarchy); pipeline-structure parameters not given in the paper use
// values typical of the era's cores.
type Config struct {
	Cores             int
	FreqHz            uint64
	Mode              Mode
	MemCfg            mem.HierarchyConfig
	FetchWidth        int
	FrontendDepth     int // cycles between fetch and rename
	RetireWidth       int
	ROBSize           int
	MispredictPenalty int
	PredictorBits     int // gshare history/table bits
	RASDepth          int
	// Characterize enables the per-opcode histogram counters used by the
	// characterization experiments (Figures 5-11). Production hardware
	// would ship with this off.
	Characterize bool
	// NoBlockCache disables the fast engine's basic-block translation
	// cache, forcing the per-instruction reference loop. The zero value
	// (cache enabled) is the production configuration; the knob exists for
	// differential testing and A/B benchmarks.
	NoBlockCache bool
	// SharedBlocks, when non-nil, is the decoded-block store this
	// machine's cores use, shared with every other machine wired to it
	// (sharedbb.go). Fleets pass one process-wide store so a program image
	// is decoded once per tag-table generation instead of once per machine;
	// nil gives the machine a store of its own, shared by its cores.
	SharedBlocks *SharedBlocks
}

// DefaultConfig returns the Table I machine in fast mode.
func DefaultConfig() Config {
	return Config{
		Cores:             4,
		FreqHz:            2_000_000_000,
		Mode:              ModeFast,
		MemCfg:            mem.DefaultHierarchyConfig(),
		FetchWidth:        4,
		FrontendDepth:     5,
		RetireWidth:       4,
		ROBSize:           192,
		MispredictPenalty: 12,
		PredictorBits:     12,
		RASDepth:          16,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("cpu config: cores = %d", c.Cores)
	}
	if c.FreqHz == 0 {
		return fmt.Errorf("cpu config: zero frequency")
	}
	if c.Mode != ModeFast && c.Mode != ModeDetailed {
		return fmt.Errorf("cpu config: invalid mode %d", c.Mode)
	}
	if c.Mode == ModeDetailed {
		if c.FetchWidth <= 0 || c.RetireWidth <= 0 || c.ROBSize <= 0 ||
			c.FrontendDepth <= 0 || c.MispredictPenalty <= 0 ||
			c.PredictorBits <= 0 || c.PredictorBits > 20 || c.RASDepth <= 0 {
			return fmt.Errorf("cpu config: invalid detailed-mode pipeline parameters")
		}
		if err := c.MemCfg.Validate(); err != nil {
			return fmt.Errorf("cpu config: %w", err)
		}
	}
	return nil
}
