// Package cpu provides the processor timing models: the single-issue
// pipelined in-order model that produces most of the paper's results, and
// the four-wide out-of-order model of Section 7. Both consume the same
// stream of (reference, latency, category) events from the memory system
// and maintain the execution-time breakdown the paper plots: CPU busy, L2
// hit stall, local memory stall, and remote stall split into clean (2-hop)
// and dirty (3-hop) components.
package cpu

import "oltpsim/internal/memref"

// StallCat attributes a memory stall to the bucket the paper plots.
type StallCat uint8

const (
	// CatNone: no stall (L1 hit).
	CatNone StallCat = iota
	// CatL2Hit: stall for an L2 hit.
	CatL2Hit
	// CatLocal: stall for local memory (including own-RAC hits).
	CatLocal
	// CatRemote: stall for remote clean memory (2-hop).
	CatRemote
	// CatRemoteDirty: stall for a dirty remote copy (3-hop, L2- or
	// RAC-sourced).
	CatRemoteDirty
)

// Breakdown is the per-CPU execution-time decomposition, in cycles.
type Breakdown struct {
	Busy        uint64
	L2Hit       uint64
	Local       uint64
	Remote      uint64
	RemoteDirty uint64
	Idle        uint64

	// Kernel tracks the portion of Busy+stalls attributed to kernel-mode
	// references (the paper reports ~25% kernel time for OLTP).
	Kernel uint64
	// Instructions counts retired instructions.
	Instructions uint64
}

// NonIdle is the execution time metric of the paper's figures (Fig. 12
// explicitly plots non-idle execution time).
func (b *Breakdown) NonIdle() uint64 {
	return b.Busy + b.L2Hit + b.Local + b.Remote + b.RemoteDirty
}

// RemoteTotal is the combined 2-hop + 3-hop stall ("RemStall" in figures).
func (b *Breakdown) RemoteTotal() uint64 { return b.Remote + b.RemoteDirty }

// Add accumulates other into b.
func (b *Breakdown) Add(other *Breakdown) {
	b.Busy += other.Busy
	b.L2Hit += other.L2Hit
	b.Local += other.Local
	b.Remote += other.Remote
	b.RemoteDirty += other.RemoteDirty
	b.Idle += other.Idle
	b.Kernel += other.Kernel
	b.Instructions += other.Instructions
}

// Sub removes prev from b. Cycle counters are monotone, so with prev an
// earlier collection of the same run the difference is the segment between
// the two collection points (per-phase scenario timelines).
func (b *Breakdown) Sub(prev *Breakdown) {
	b.Busy -= prev.Busy
	b.L2Hit -= prev.L2Hit
	b.Local -= prev.Local
	b.Remote -= prev.Remote
	b.RemoteDirty -= prev.RemoteDirty
	b.Idle -= prev.Idle
	b.Kernel -= prev.Kernel
	b.Instructions -= prev.Instructions
}

func (b *Breakdown) charge(cat StallCat, cycles uint64, kernel bool) {
	switch cat {
	case CatL2Hit:
		b.L2Hit += cycles
	case CatLocal:
		b.Local += cycles
	case CatRemote:
		b.Remote += cycles
	case CatRemoteDirty:
		b.RemoteDirty += cycles
	}
	if kernel {
		b.Kernel += cycles
	}
}

// Model is a processor timing model. The system engine feeds it one timed
// reference at a time, in program order.
type Model interface {
	// Account consumes one reference with its memory latency (0 for an L1
	// hit) and stall category.
	Account(r memref.Ref, lat uint32, cat StallCat)
	// Now returns the CPU's local clock in cycles.
	Now() uint64
	// AdvanceTo moves the clock forward to t, counting idle cycles. It is a
	// no-op if t is in the past.
	AdvanceTo(t uint64)
	// Breakdown exposes the mutable execution-time decomposition.
	Breakdown() *Breakdown
	// ResetStats zeroes the breakdown (end of warmup) without moving the
	// clock.
	ResetStats()
}
