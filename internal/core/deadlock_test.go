package core

import (
	"strings"
	"testing"

	"oltpsim/internal/kernel"
	"oltpsim/internal/memref"
)

// stuckWorkload naps forever without ever committing a transaction: the
// shape of a scheduler deadlock (every process blocked, nobody to wake
// them) as seen from the stepping loop.
type stuckWorkload struct{}

func (stuckWorkload) Next(cpu int, now uint64) (memref.Ref, kernel.Status, uint64) {
	return memref.Ref{}, kernel.StatusIdle, now + 2048
}

func (stuckWorkload) HomeOf(uint64) int { return 0 }
func (stuckWorkload) Committed() uint64 { return 0 }

// TestRunUntilPanicsOnStuckScheduler proves the deadlock guard actually
// fires: a workload that idles forever must trip the derived step bound
// instead of spinning until the heat death of the test runner.
func TestRunUntilPanicsOnStuckScheduler(t *testing.T) {
	sys := MustNewSystem(smallCfg(1), stuckWorkload{})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("RunUntil returned instead of panicking on a stuck scheduler")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "scheduler deadlock") {
			t.Fatalf("panic = %v, want a scheduler-deadlock message", r)
		}
	}()
	sys.RunUntil(1)
}

// TestStepBoundScalesWithWork pins the shape of the derived bound:
// proportional to outstanding transactions and core count, saturating
// rather than overflowing for absurd targets, and never zero (so the loop
// always gets at least a budget of steps before the guard trips).
func TestStepBoundScalesWithWork(t *testing.T) {
	sys1 := MustNewSystem(smallCfg(1), stuckWorkload{})
	sys4 := MustNewSystem(smallCfg(4), stuckWorkload{})

	b1 := sys1.stepBound(1)
	if want := uint64(2) * refBudgetPerTxn; b1 != want {
		t.Fatalf("stepBound(1 txn, 1 cpu) = %d, want %d", b1, want)
	}
	b4 := sys4.stepBound(10)
	if want := uint64(11) * refBudgetPerTxn * 4; b4 != want {
		t.Fatalf("stepBound(10 txns, 4 cpus) = %d, want %d", b4, want)
	}
	// A target at or below the committed count still leaves a one-transaction
	// budget for the loop's own bookkeeping.
	if b0 := sys1.stepBound(0); b0 != refBudgetPerTxn {
		t.Fatalf("stepBound(0) = %d, want %d", b0, refBudgetPerTxn)
	}
	if sat := sys4.stepBound(^uint64(0) / 2); sat != ^uint64(0) {
		t.Fatalf("stepBound(huge) = %d, want saturation at max uint64", sat)
	}
}

// spinGen emits segments of L1 hits forever: one instruction line and one
// data line, touched over and over, and never a commit. Its process never
// blocks, so the scheduler is never stuck in the idle sense — the run loop
// serves long runs of hits while the workload makes no progress at all.
type spinGen struct{}

func (spinGen) NextSegment(now uint64, out *kernel.RefBuffer) kernel.Directive {
	for i := 0; i < 64; i++ {
		out.Append(memref.Ref{Addr: 0, Kind: memref.IFetch, Instrs: 4})
		out.Append(memref.Ref{Addr: 1 << 20, Kind: memref.Load})
	}
	return kernel.Directive{Kind: kernel.Run}
}

// spinWorkload runs one spinGen process per CPU through a kernel.Scheduler,
// exposing it as a RefSource so the run loop serves it.
type spinWorkload struct{ sched *kernel.Scheduler }

func newSpinWorkload(cpus int) *spinWorkload {
	s := kernel.NewScheduler(cpus, 100, nil)
	for cpu := 0; cpu < cpus; cpu++ {
		s.Spawn(cpu, "spin", spinGen{})
	}
	return &spinWorkload{sched: s}
}

func (w *spinWorkload) Next(cpu int, now uint64) (memref.Ref, kernel.Status, uint64) {
	return w.sched.Next(cpu, now)
}
func (w *spinWorkload) RefSource() *kernel.Scheduler { return w.sched }
func (w *spinWorkload) HomeOf(uint64) int            { return 0 }
func (w *spinWorkload) Committed() uint64            { return 0 }

// TestRunUntilPanicsOnLivelock: a workload that retires references forever
// without committing must trip the deadlock guard within its budget, which
// is denominated in references. One Step may retire up to maxEpochScan
// references, so the guard may overshoot by at most one such run — a guard
// that counted Step calls would let the run go up to maxEpochScan times
// past the budget.
func TestRunUntilPanicsOnLivelock(t *testing.T) {
	sys := MustNewSystem(smallCfg(1), newSpinWorkload(1))
	limit := sys.stepBound(1) + maxEpochScan
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("RunUntil returned instead of panicking on a livelocked workload")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "scheduler deadlock") {
			t.Fatalf("panic = %v, want a scheduler-deadlock message", r)
		}
		if got := sys.Steps(); got > limit {
			t.Fatalf("guard fired after %d references, want at most %d", got, limit)
		}
		if sys.FastForwarded() == 0 {
			t.Fatal("livelock never reached the run loop; the test does not exercise it")
		}
	}()
	sys.RunUntil(1)
}
