package core

import (
	"reflect"
	"testing"

	"oltpsim/internal/kernel"
	"oltpsim/internal/memref"
	"oltpsim/internal/oltp"
)

// strideGen emits segments of loads at never-repeating line addresses: every
// reference is a cold L1 miss, so the stream contains zero guaranteed hits.
type strideGen struct {
	next uint64
	segs int
}

func (g *strideGen) NextSegment(now uint64, out *kernel.RefBuffer) kernel.Directive {
	if g.segs == 0 {
		return kernel.Directive{Kind: kernel.Exit}
	}
	g.segs--
	for i := 0; i < 32; i++ {
		out.Append(memref.Ref{Addr: g.next, Kind: memref.Load, Instrs: 1})
		g.next += 64
	}
	return kernel.Directive{Kind: kernel.Run}
}

// strideWorkload adapts a bare scheduler of strideGen processes to the
// Workload interface, exposing the RefSource fast path the fast-forward hook
// requires.
type strideWorkload struct {
	sched *kernel.Scheduler
	chips int
}

func newStrideWorkload(cpus, chips int) *strideWorkload {
	s := kernel.NewScheduler(cpus, 100, nil)
	for cpu := 0; cpu < cpus; cpu++ {
		// Disjoint gigabyte-apart address ranges per process: no line is
		// ever touched twice, by anyone.
		s.Spawn(cpu, "stride", &strideGen{next: uint64(cpu) << 30, segs: 8})
	}
	return &strideWorkload{sched: s, chips: chips}
}

func (w *strideWorkload) Next(cpu int, now uint64) (memref.Ref, kernel.Status, uint64) {
	return w.sched.Next(cpu, now)
}
func (w *strideWorkload) RefSource() *kernel.Scheduler { return w.sched }
func (w *strideWorkload) HomeOf(line uint64) int       { return int(line) % w.chips }
func (w *strideWorkload) Committed() uint64            { return 0 }

// TestFastForwardZeroHitStreamBatchesNothing is the metamorphic degenerate
// case of the run loop: on a stream with zero guaranteed L1 hits every
// reference is a miss, which the run loop finishes inline without ending
// the run, but its hit batch never retires a reference — FastForwarded stays
// 0 — and the machine must still end in exactly the state the per-reference
// path produces.
func TestFastForwardZeroHitStreamBatchesNothing(t *testing.T) {
	run := func(noFF bool) *System {
		cfg := BaseConfig(2, 1*MB, 4)
		sys := MustNewSystem(cfg, newStrideWorkload(2, 2))
		sys.SetFastForward(!noFF)
		for sys.Step() {
		}
		return sys
	}
	on := run(false)
	off := run(true)

	if ff := on.FastForwarded(); ff != 0 {
		t.Errorf("zero-hit stream fast-forwarded %d references, want 0", ff)
	}
	if on.Steps() != off.Steps() {
		t.Errorf("steps diverged: fast-forward on %d, off %d", on.Steps(), off.Steps())
	}
	if !reflect.DeepEqual(on.clocks, off.clocks) {
		t.Errorf("final clocks diverged:\non:  %v\noff: %v", on.clocks, off.clocks)
	}
	for cpu := 0; cpu < 2; cpu++ {
		if om, fm := on.L1D(cpu).Misses(), off.L1D(cpu).Misses(); om != fm {
			t.Errorf("cpu %d L1D misses diverged: on %d, off %d", cpu, om, fm)
		}
		if on.L1D(cpu).Hits != 0 {
			t.Errorf("cpu %d saw %d L1D hits in a stream built to never hit", cpu, on.L1D(cpu).Hits)
		}
	}
}

// TestFastForwardMatchesPerReference runs the real OLTP workload end to end
// with the bulk path on and off: the RunResults must be deeply equal, and
// the on-run must actually have exercised the bulk path (a hit-heavy stream
// that never fast-forwards would make the equivalence vacuous).
func TestFastForwardMatchesPerReference(t *testing.T) {
	run := func(noFF bool) (*System, interface{}) {
		p := oltp.TestParams(2)
		sys := MustNewSystem(BaseConfig(2, 1*MB, 4), oltp.MustNewHarness(p))
		sys.SetFastForward(!noFF)
		res := sys.Run(20, 60)
		return sys, res
	}
	onSys, onRes := run(false)
	_, offRes := run(true)

	if !reflect.DeepEqual(onRes, offRes) {
		t.Fatalf("fast-forward changed the result:\non:  %+v\noff: %+v", onRes, offRes)
	}
	if onSys.FastForwarded() == 0 {
		t.Fatal("OLTP run never took the fast path; equivalence test is vacuous")
	}
}
