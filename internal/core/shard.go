package core

import (
	"oltpsim/internal/cache"
	"oltpsim/internal/memref"
)

// This file implements deterministic intra-run parallelism: epoch-sharded
// stepping. The serial engine interleaves cores by (clock, CPU ID); sharding
// exploits the observation that a reference which is a guaranteed L1 hit
// touches only its own core's state (plus, for the silent Exclusive→Modified
// store upgrade, its own chip's L2 line), so runs of such references on
// different chips commute — executing them concurrently produces exactly the
// state and statistics of the serial interleaving.
//
// Each epoch has three parts:
//
//  1. Phase A (parallel, read-only): every live core scans its pending
//     references through kernel.Scheduler.Pending, classifying the prefix of
//     guaranteed L1 hits with non-mutating cache probes and projecting its
//     clock across them with the in-order timing rule (an instruction fetch
//     advances by its instruction count; a zero-latency data hit advances
//     nothing). The scan stops at the first reference that could miss, at a
//     possible preemption point (the exact mirror of the scheduler's slice
//     test), or at the segment end — every one of those events can mutate
//     shared state, and its projected time is the core's stop time.
//
//  2. Barrier, then phase B (parallel over chip shards): with the horizon H
//     = min over live cores of the stop time, every reference served
//     strictly before H lies inside some core's validated prefix, so each
//     shard replays its cores' references through serveRun — the same
//     bulk path the serial engine's fast-forward uses, with the strict
//     horizon bound (limID < 0) in place of the root tie-break. Guard
//     panics enforce that nothing leaves the validated prefix. Per-shard
//     step counts merge into the System counter at the barrier, and the
//     event queue is rebuilt from the advanced clocks.
//
//  3. A serial batch of ordinary heap steps retires the non-validated
//     events at the horizon — misses, directory transactions, segment
//     drains (where transaction commits live), context switches — with the
//     per-step commit-boundary check of the serial loop.
//
// Because commits only happen in the serial part, RunUntil still stops at
// exactly the committed-transaction boundary, and the executed reference
// sequence is the serial sequence — output is byte-identical with sharding
// on or off, for any worker count.

const (
	// maxEpochScan bounds phase A's per-core lookahead, keeping the
	// read-only scan proportional to what an epoch could plausibly retire.
	maxEpochScan = 4096
	// serialBatch is how many ordinary heap steps run between epochs to
	// clear the events blocking the horizon.
	serialBatch = 256
	// epochMinYield is the retired-reference count below which an epoch is
	// judged unproductive: a full epoch prices a safe-prefix scan of every
	// live core, so retiring only a handful of references costs more than
	// serving them serially would have.
	epochMinYield = 32
	// epochBackoffMax caps the adaptive pacing multiplier: after repeated
	// unproductive epochs up to epochBackoffMax serial batches run between
	// attempts, so a workload whose horizon never opens up degrades to
	// nearly pure serial stepping instead of paying for futile scans.
	epochBackoffMax = 64
)

// SetStepWorkers selects how many goroutines step the machine inside a
// single run. n <= 1 keeps the pure serial engine. Sharded stepping needs a
// direct scheduler (RefSource), in-order cores, and at least two chips;
// systems that don't qualify silently stay serial. Output is byte-identical
// for every value of n.
func (s *System) SetStepWorkers(n int) {
	s.stepWorkers = n
}

// shardable reports whether RunUntil may use the epoch-sharded engine.
func (s *System) shardable() bool {
	return s.stepWorkers >= 2 && s.sched != nil && !s.cfg.OutOfOrder && s.chips >= 2
}

// committedCount returns the workload's committed-transaction count through
// the fast path when available.
func (s *System) committedCount() uint64 {
	if s.commits != nil {
		return *s.commits
	}
	return s.w.Committed()
}

// epochEngine holds the reusable scratch state of the sharded stepping loop,
// including the persistent worker pool (epochpool.go).
type epochEngine struct {
	s       *System
	workers int
	stop    []uint64 // per-core projected time of the first non-validated event
	live    []int32  // scratch snapshot of the live-core heap
	delta   []uint64 // per-slot executed-reference counts

	// Pool state: slot 1..workers-1 command channels, the barrier channel,
	// and the per-epoch inputs the dispatching goroutine publishes to the
	// workers (see epochpool.go for the synchronization argument).
	cmds    []chan int
	done    chan struct{}
	nw      int    // worker count of the phase being dispatched
	horizon uint64 // phase B's serving bound
}

func (s *System) engine() *epochEngine {
	if s.eng == nil || s.eng.workers != s.stepWorkers {
		if s.eng != nil {
			s.eng.stopPool()
		}
		s.eng = &epochEngine{
			s:       s,
			workers: s.stepWorkers,
			stop:    make([]uint64, len(s.allCores)),
			live:    make([]int32, 0, len(s.allCores)),
			delta:   make([]uint64, s.stepWorkers),
		}
	}
	return s.eng
}

// runUntilSharded is RunUntil's epoch-sharded twin: identical stop condition
// and deadlock guard, with epochs interleaved between serial batches. Epoch
// pacing is adaptive: each unproductive epoch doubles the number of serial
// batches before the next attempt and a productive one resets the pace.
// Pacing decisions key only on retired-reference counts, which are
// worker-count-independent, so the executed schedule — and therefore every
// result — stays byte-identical for any worker count (pacing merely moves
// work between the epoch path and the serial path, which execute the same
// sequence).
func (s *System) runUntilSharded(target uint64) {
	e := s.engine()
	e.startPool()
	defer e.stopPool()
	var guard uint64
	bound := s.stepBound(target)
	pace := 1
	for {
		for b := 0; b < pace; b++ {
			for i := 0; i < serialBatch; i++ {
				if s.committedCount() >= target {
					return
				}
				n, ok := s.guardedStep()
				if !ok {
					return
				}
				guard += n
			}
		}
		if s.committedCount() >= target {
			return
		}
		n := e.runEpoch()
		guard += n
		if n < epochMinYield {
			if pace < epochBackoffMax {
				pace *= 2
			}
		} else {
			pace = 1
		}
		if guard > bound {
			s.deadlockPanic(guard, target)
		}
	}
}

// runEpoch executes one epoch and returns how many references it retired (0
// when no core could safely run, in which case only the serial loop makes
// progress).
func (e *epochEngine) runEpoch() uint64 {
	s := e.s
	e.live = append(e.live[:0], s.heap...)
	if len(e.live) == 0 {
		return 0
	}
	e.phaseA()
	horizon := ^uint64(0)
	for _, idx := range e.live {
		if t := e.stop[idx]; t < horizon {
			horizon = t
		}
	}
	progress := false
	for _, idx := range e.live {
		if s.clocks[idx] < horizon {
			progress = true
			break
		}
	}
	if !progress {
		return 0
	}
	n := e.phaseB(horizon)
	s.rebuildHeap()
	return n
}

// phaseA fills e.stop for every live core: a parallel, read-only scan
// dispatched across the persistent pool.
func (e *epochEngine) phaseA() {
	nw := e.workers
	if nw > len(e.live) {
		nw = len(e.live)
	}
	if nw < 1 {
		nw = 1
	}
	e.nw = nw
	e.dispatch(phaseScan, nw)
}

// phaseB replays every validated reference below the horizon, one pool slot
// per contiguous shard of chips, and merges the per-slot step counts. The
// replay runs through serveRun, so phase B retires whole runs per
// scheduler lookahead exactly like the serial fast-forward; its counts land
// in the fast-forward diagnostic too, since these references were bulk-
// retired the same way.
func (e *epochEngine) phaseB(horizon uint64) uint64 {
	s := e.s
	nw := e.workers
	if nw > len(s.nodes) {
		nw = len(s.nodes)
	}
	if nw < 1 {
		nw = 1
	}
	e.nw = nw
	e.horizon = horizon
	e.dispatch(phaseServe, nw)
	var total uint64
	for i := 0; i < nw; i++ {
		total += e.delta[i]
		e.delta[i] = 0
	}
	s.steps += total
	s.ffSteps += total
	return total
}

// serveValidated serves one core's references while its clock stays below
// the horizon, whole hit-runs at a time. Phase A guarantees every reference
// below the horizon is a zero-latency L1 hit whose serve leaves all
// cross-chip state untouched; serveRun's sharded mode panics on any
// non-hit inside the bound, and the progress panic here covers the remaining
// way the reasoning could fail (a scheduler event — drain, refill, dispatch,
// preemption — surfacing before the horizon), turning either violation into
// an immediate loud failure instead of silent nondeterminism.
func (s *System) serveValidated(co *coreCtx, horizon uint64) uint64 {
	idx := co.cpuID
	m := co.inorder
	var n uint64
	for s.clocks[idx] < horizon {
		k := s.serveRun(co, horizon, -1, false)
		if k == 0 {
			panic("core: sharded step left the validated prefix (scheduler event)")
		}
		s.clocks[idx] = m.Now()
		n += k
	}
	return n
}

// scanSafePrefix projects core idx's clock across its longest pending run of
// guaranteed L1 hits and returns the projected time of the first event that
// could touch shared state: a possible miss, a possible preemption, or the
// end of the materialized segment (drains, refills, and dispatches all
// mutate the scheduler). Read-only.
func (s *System) scanSafePrefix(idx int) uint64 {
	co := s.allCores[idx]
	t := s.clocks[idx]
	pr := s.sched.Pending(co.cpuID)
	scanned := 0
	// Context-switch overhead is served unconditionally — no slice
	// accounting and no preemption test.
	for _, r := range pr.Switch {
		if scanned >= maxEpochScan || !s.l1Guaranteed(co, r) {
			return t
		}
		if r.Kind == memref.IFetch {
			t += uint64(r.Instrs)
		}
		scanned++
	}
	for k := range pr.Seg {
		if scanned >= maxEpochScan {
			return t
		}
		// Exact mirror of the scheduler's slice-expiry test at serve time t.
		if pr.SliceUsed+k >= pr.Quantum && pr.OtherWake <= t {
			return t
		}
		r := pr.Seg[k]
		if !s.l1Guaranteed(co, r) {
			return t
		}
		if r.Kind == memref.IFetch {
			t += uint64(r.Instrs)
		}
		scanned++
	}
	return t
}

// l1Guaranteed reports whether serving r now would certainly take the
// zero-latency L1-hit path of access: any resident state satisfies a fetch
// or load, while a store needs Modified or Exclusive (the silent upgrade) —
// a Shared store goes through the L2 and the directory. Probes only; no LRU
// or statistics updates.
func (s *System) l1Guaranteed(co *coreCtx, r memref.Ref) bool {
	line := r.Line()
	switch r.Kind {
	case memref.IFetch:
		return co.l1i.Probe(line) != cache.Invalid
	case memref.Load:
		return co.l1d.Probe(line) != cache.Invalid
	default:
		switch co.l1d.Probe(line) {
		case cache.Modified, cache.Exclusive:
			return true
		}
		return false
	}
}
