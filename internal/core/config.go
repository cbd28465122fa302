package core

import (
	"fmt"

	"oltpsim/internal/cache"
	"oltpsim/internal/coherence"
)

// KB and MB are sizes in bytes.
const (
	KB = int64(1) << 10
	MB = int64(1) << 20
)

// RACConfig describes the optional off-chip remote access cache of paper
// Section 6: a memory-backed cache of remote lines with on-chip tags.
type RACConfig struct {
	SizeBytes int64
	Assoc     int
}

// OOOParams describes the out-of-order processor model (paper Section 7:
// four-wide issue, four integer units, two load/store units, 64-entry
// window).
type OOOParams struct {
	// Width is the issue/retire width.
	Width int
	// Window is the instruction window (ROB) size.
	Window int
	// MemPorts is the number of load/store units.
	MemPorts int
	// EffectiveWidth is the sustained issue rate on OLTP integer code,
	// accounting for fetch stalls and branch mispredictions the reference
	// stream abstracts away. OLTP has limited ILP (paper Section 7); the
	// default is calibrated so that OOO gains ~1.4x uniprocessor over
	// in-order, as the paper reports.
	EffectiveWidth float64
}

// DefaultOOO returns the paper's out-of-order configuration.
func DefaultOOO() OOOParams {
	return OOOParams{Width: 4, Window: 64, MemPorts: 2, EffectiveWidth: 1.6}
}

// Config describes one simulated machine (paper Figure 2 plus the
// integration level under study).
type Config struct {
	// Name labels the configuration in reports ("Base", "2M8w", ...).
	Name string
	// Processors is the number of CPU cores in the machine (1 or 8 in the
	// paper, one per chip; at most coherence.MaxNodes).
	Processors int
	// CoresPerChip groups cores onto chips sharing one L2/RAC/home node
	// (0 or 1 = the paper's one-core chips). Values above 1 model the chip
	// multiprocessing the paper's conclusion proposes as the next step;
	// examples/cmp_future uses it.
	CoresPerChip int
	// Level is the integration level under study.
	Level IntegrationLevel
	// L2SizeBytes and L2Assoc set the unified L2 organization.
	L2SizeBytes int64
	L2Assoc     int
	// L2TechKind is the array technology (constrains what is realizable:
	// ~2 MB on-chip SRAM, ~8 MB on-chip DRAM in 0.18um).
	L2TechKind L2Tech
	// L1SizeBytes and L1Assoc apply to both L1 caches (64 KB 2-way).
	L1SizeBytes int64
	L1Assoc     int
	// RAC, when non-nil, adds a remote access cache (multiprocessor only).
	RAC *RACConfig
	// OutOfOrder selects the 4-wide OOO model instead of single-issue
	// in-order.
	OutOfOrder bool
	// OOO parametrizes the OOO model when OutOfOrder is set.
	OOO OOOParams
	// CodeReplication turns on OS-based replication of code pages at every
	// node (paper Section 6).
	CodeReplication bool
	// LatencyOverride, when non-nil, replaces the Figure 3 derivation.
	LatencyOverride *LatencyTable
	// NoMigratory disables the protocol's migratory-sharing optimization
	// (ablation: every dirty read miss then downgrades to shared and the
	// following write pays an upgrade).
	NoMigratory bool
	// Classify enables cold/capacity/conflict miss classification on the L2
	// (costly; used by the classification experiment only).
	Classify bool
}

// Latencies resolves the latency table for the configuration.
func (c Config) Latencies() LatencyTable {
	if c.LatencyOverride != nil {
		return *c.LatencyOverride
	}
	return Latencies(c.Level, c.L2Assoc, c.L2TechKind)
}

// L1CacheConfig returns the cache geometry for an L1.
func (c Config) L1CacheConfig(name string) cache.Config {
	return cache.Config{Name: name, SizeBytes: c.L1SizeBytes, Assoc: c.L1Assoc, LineBytes: 64}
}

// L2CacheConfig returns the cache geometry for the L2.
func (c Config) L2CacheConfig() cache.Config {
	return cache.Config{Name: "L2", SizeBytes: c.L2SizeBytes, Assoc: c.L2Assoc, LineBytes: 64}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Processors <= 0 || c.Processors > coherence.MaxNodes {
		return fmt.Errorf("core: %d processors out of range 1..%d", c.Processors, coherence.MaxNodes)
	}
	if c.CoresPerChip < 0 || (c.CoresPerChip > 1 && c.Processors%c.CoresPerChip != 0) {
		return fmt.Errorf("core: %d cores do not divide into chips of %d", c.Processors, c.CoresPerChip)
	}
	if err := c.L1CacheConfig("L1").Validate(); err != nil {
		return err
	}
	if err := c.L2CacheConfig().Validate(); err != nil {
		return err
	}
	if c.RAC != nil {
		rc := cache.Config{Name: "RAC", SizeBytes: c.RAC.SizeBytes, Assoc: c.RAC.Assoc, LineBytes: 64}
		if err := rc.Validate(); err != nil {
			return err
		}
	}
	if c.OutOfOrder && (c.OOO.Width <= 0 || c.OOO.Window <= 0 || c.OOO.MemPorts <= 0) {
		return fmt.Errorf("core: out-of-order parameters not set (use DefaultOOO)")
	}
	return nil
}

// withDefaults fills the fields shared by every paper configuration.
func withDefaults(c Config) Config {
	c.L1SizeBytes = 64 * KB
	c.L1Assoc = 2
	if c.OutOfOrder && c.OOO.Width == 0 {
		c.OOO = DefaultOOO()
	}
	return c
}

// BaseConfig is the paper's "Base": everything off-chip, 8 MB L2 by
// default, aggressive latencies.
func BaseConfig(procs int, l2Size int64, l2Assoc int) Config {
	return withDefaults(Config{
		Name:        fmt.Sprintf("Base %s%dw", sizeLabel(l2Size), l2Assoc),
		Processors:  procs,
		Level:       Base,
		L2SizeBytes: l2Size,
		L2Assoc:     l2Assoc,
		L2TechKind:  OffChipSRAM,
	})
}

// ConservativeConfig is the paper's "Conservative Base" (8 MB 4-way in the
// figures).
func ConservativeConfig(procs int) Config {
	return withDefaults(Config{
		Name:        "Cons 8M4w",
		Processors:  procs,
		Level:       ConservativeBase,
		L2SizeBytes: 8 * MB,
		L2Assoc:     4,
		L2TechKind:  OffChipSRAM,
	})
}

// IntegratedL2Config integrates the L2 on die (SRAM or DRAM array).
func IntegratedL2Config(procs int, l2Size int64, l2Assoc int, tech L2Tech) Config {
	return withDefaults(Config{
		Name:        fmt.Sprintf("L2 %s%dw", sizeLabel(l2Size), l2Assoc),
		Processors:  procs,
		Level:       IntegratedL2,
		L2SizeBytes: l2Size,
		L2Assoc:     l2Assoc,
		L2TechKind:  tech,
	})
}

// L2MCConfig integrates the L2 and memory controller.
func L2MCConfig(procs int, l2Size int64, l2Assoc int) Config {
	return withDefaults(Config{
		Name:        fmt.Sprintf("L2+MC %s%dw", sizeLabel(l2Size), l2Assoc),
		Processors:  procs,
		Level:       IntegratedL2MC,
		L2SizeBytes: l2Size,
		L2Assoc:     l2Assoc,
		L2TechKind:  OnChipSRAM,
	})
}

// FullConfig integrates everything (Alpha 21364-like).
func FullConfig(procs int, l2Size int64, l2Assoc int) Config {
	return withDefaults(Config{
		Name:        fmt.Sprintf("All %s%dw", sizeLabel(l2Size), l2Assoc),
		Processors:  procs,
		Level:       FullIntegration,
		L2SizeBytes: l2Size,
		L2Assoc:     l2Assoc,
		L2TechKind:  OnChipSRAM,
	})
}

func sizeLabel(b int64) string {
	switch {
	case b >= MB && b%MB == 0:
		return fmt.Sprintf("%dM", b/MB)
	case b*4%MB == 0:
		return fmt.Sprintf("%.2gM", float64(b)/float64(MB))
	default:
		return fmt.Sprintf("%dK", b/KB)
	}
}
