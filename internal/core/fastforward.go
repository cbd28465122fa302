package core

import (
	"oltpsim/internal/cache"
	"oltpsim/internal/cpu"
	"oltpsim/internal/memref"
)

// This file implements the serial engine's run loop: the root core serves
// its pending references for as long as it stays the earliest event in the
// queue.
//
// Per-reference stepping pays the full event-queue round trip — scheduler
// call, accounting, heap sift — for every reference. Yet the core at the
// heap root keeps being dispatched for as long as its key (clock, CPU ID)
// stays below the runner-up key, and on a uniprocessor it always does. The
// run loop serves that whole stretch from one scheduler lookahead
// (kernel.Scheduler.Pending) and one cursor advance (ConsumeRun).
//
// Correctness needs no commuting argument: the root core serves a reference
// only while its clock stays strictly below the second-best heap key, or
// equal with a lower CPU ID (the serial tie-break). Under that bound the
// serial engine would have dispatched this core for every one of those
// references anyway, so the executed sequence IS the serial sequence. An
// L1 miss inside the run changes memory-system state (caches, directory,
// victim buffer, RAC, contention queues) and this core's clock, and nothing
// else: no other core's heap key moves, and no scheduler state changes,
// because wakes happen only in segment drains and runs contain no drains.
// So the bound and the preemption inputs stay valid across misses, and the
// loop re-reads the core clock after each one and keeps going. The run
// stops only at a scheduler event (end of the pending switch or segment
// references, a possible preemption — the exact mirror of the scheduler's
// slice test), at the root bound, or after maxEpochScan references. No
// transaction can commit inside a run, so RunUntil's commit-boundary
// exactness is preserved.
//
// In-order cores batch their guaranteed L1 hits: one AccountRun call adds
// the batch's instruction totals (zero-latency data hits contribute
// nothing, exactly as Account would) and node kind counters are added once
// per batch. A miss flushes the batch first — the contention model reads
// the core clock — and is then finished inline through accessBeyondL1 and
// Account. Out-of-order cores account every reference through the model,
// unbatched. Cache state is updated per reference through the same
// Access/SetState calls per-reference stepping makes, so LRU order and hit
// counters are bit-identical.

// fastForward serves the core at the heap root for as long as it remains
// the earliest event in the queue, returning the number of references
// retired. 0 means the next event is not a plain reference (idle, dispatch,
// drain, preemption) and the per-reference path must take over.
func (s *System) fastForward(idx int, co *coreCtx) uint64 {
	// The root keeps its slot while its key (clock, CPU ID) stays the queue
	// minimum; the runner-up key is the smaller of the root's two children.
	limT := ^uint64(0)
	limID := int32(-1)
	h := s.heap
	if len(h) > 1 {
		c1 := h[1]
		limT, limID = s.clocks[c1], c1
		if len(h) > 2 {
			c2 := h[2]
			if t2 := s.clocks[c2]; t2 < limT || (t2 == limT && c2 < limID) {
				limT, limID = t2, c2
			}
		}
	}
	n := s.serveRun(co, limT, limID, true)
	if n > 0 {
		s.clocks[idx] = co.model.Now()
		s.siftDown(0)
		s.steps += n
	}
	return n
}

// hitBatch accumulates an in-order core's run — the instruction totals of
// its L1 hits and the kind counts of all its references — until a miss or
// the end of the run flushes it into the timing model and the node's kind
// counters.
type hitBatch struct {
	instrs, kinstrs        uint64
	fetches, loads, stores uint64
}

// flush applies the batch to in-order model m and node nd, then empties it.
func (b *hitBatch) flush(m *cpu.InOrder, nd *node) {
	if b.instrs != 0 {
		m.AccountRun(b.instrs, b.kinstrs)
	}
	nd.ifetches += b.fetches
	nd.loads += b.loads
	nd.stores += b.stores
	*b = hitBatch{}
}

// serveRun serves core co's pending references while each one's serve time
// stays inside the bound: strictly before limT, or exactly at limT when co's
// CPU ID is below limID (the serial root tie-break; pass limID < 0 for the
// strict bound the sharded horizon requires). In serial mode an L1 miss is
// finished inline and the run continues; in sharded mode (serial=false,
// in-order cores only) a non-hit inside the bound violates the epoch
// horizon argument and panics. Returns the number of references retired.
func (s *System) serveRun(co *coreCtx, limT uint64, limID int32, serial bool) uint64 {
	m := co.inorder // nil for an out-of-order core
	nd := co.chip
	cid := int32(co.cpuID)
	t := co.model.Now()
	pr := s.sched.Pending(co.cpuID)

	var (
		nSwitch, nSeg  int
		served, misses int
		b              hitBatch
	)

scan:
	// Phase 0 walks the pending context-switch overhead (served by the
	// scheduler unconditionally — no slice accounting, no preemption test),
	// phase 1 the running process's segment. Up to its first miss the walk
	// mirrors scanSafePrefix exactly, which is what lets the sharded engine
	// replay through this same function against its phase-A stop times.
	for phase := 0; phase < 2; phase++ {
		refs := pr.Switch
		if phase == 1 {
			refs = pr.Seg
		}
		for k := 0; k < len(refs); k++ {
			if served >= maxEpochScan {
				break scan
			}
			if !(t < limT || (t == limT && cid < limID)) {
				break scan
			}
			if phase == 1 && pr.SliceUsed+nSeg >= pr.Quantum && pr.OtherWake <= t {
				// Exact mirror of the scheduler's slice-expiry test at
				// serve time t; OtherWake cannot change mid-run because
				// only this core touches the scheduler while it runs.
				break scan
			}
			r := refs[k]
			if phase == 0 {
				nSwitch++
			} else {
				nSeg++
			}
			served++
			if m == nil {
				// Out-of-order: every reference through the model,
				// unbatched.
				lat, cat := s.access(nd, co, r)
				co.model.Account(r, lat, cat)
				t = co.model.Now()
				continue
			}
			line := r.Line()
			l1 := co.l1d
			switch r.Kind {
			case memref.IFetch:
				b.fetches++
				if co.l1i.Access(line) != cache.Invalid {
					in := uint64(r.Instrs)
					b.instrs += in
					if r.Kernel {
						b.kinstrs += in
					}
					t += in
					continue
				}
				l1 = co.l1i
			case memref.Load:
				b.loads++
				if co.l1d.Access(line) != cache.Invalid {
					continue
				}
			default:
				b.stores++
				switch co.l1d.Access(line) {
				case cache.Modified:
					continue
				case cache.Exclusive:
					// Silent E->M upgrade, same as the per-reference path.
					co.l1d.SetState(line, cache.Modified)
					nd.l2.SetState(line, cache.Modified)
					continue
				}
				// Shared or Invalid: the store needs the L2 or the
				// directory.
			}
			if !serial {
				panic("core: sharded step left the validated prefix (memory miss)")
			}
			// The miss reaches the lower levels, whose contention model
			// reads the core clock: land the batch (this reference's kind
			// count included) first, exactly where per-reference stepping
			// would have left the clock. The L1 lookup already happened
			// above, so the reference resumes below it.
			misses++
			b.flush(m, nd)
			lat, cat := s.accessBeyondL1(nd, co, l1, line, r.Kind == memref.IFetch, r.Kind == memref.Store)
			m.Account(r, lat, cat)
			t = m.Now()
		}
	}

	if served == 0 {
		return 0
	}
	if m != nil {
		b.flush(m, nd)
		if serial {
			s.ffSteps += uint64(served - misses)
		}
	}
	s.sched.ConsumeRun(co.cpuID, nSwitch, nSeg)
	return uint64(served)
}
