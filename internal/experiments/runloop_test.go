package experiments

import (
	"bytes"
	"testing"

	"oltpsim/internal/core"
	"oltpsim/internal/snapshot"
)

// identityCommits is how many commit boundaries TestRunLoopStateAtEveryCommit
// compares per machine shape (an eighth of them under -short, which the
// race-detector sweep runs).
const identityCommits = 40

// TestRunLoopStateAtEveryCommit steps every invariant machine shape twice —
// with the run loop (the default) and per reference (NoFastForward) — one
// commit at a time, and compares the complete saved machine state after
// each RunUntil(k): caches, directory, timing models, contention queues,
// counters and the workload. Equal final results could hide a divergence
// that later reconverges; equal state at every commit boundary cannot.
func TestRunLoopStateAtEveryCommit(t *testing.T) {
	for _, cfg := range invariantConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			loop := invariantOptions().build(cfg)
			perRef := invariantOptions()
			perRef.NoFastForward = true
			oracle := perRef.build(cfg)
			commits := uint64(identityCommits)
			if testing.Short() {
				commits /= 8
			}
			wl, wo := snapshot.NewWriter(), snapshot.NewWriter()
			for k := uint64(1); k <= commits; k++ {
				loop.RunUntil(k)
				oracle.RunUntil(k)
				wl.Reset()
				wo.Reset()
				if err := loop.SaveTo(wl); err != nil {
					t.Fatal(err)
				}
				if err := oracle.SaveTo(wo); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wl.Bytes(), wo.Bytes()) {
					t.Fatalf("machine state diverged at commit %d (steps: run loop %d, per-reference %d)",
						k, loop.Steps(), oracle.Steps())
				}
			}
			if cfg.OutOfOrder {
				return
			}
			if loop.FastForwarded() == 0 {
				t.Fatal("the run loop never batched a hit; the comparison is vacuous")
			}
		})
	}
}

// TestRunLoopServesManyReferencesPerStep pins the run loop's reach on a
// uniprocessor: its only core is always the earliest event, so one Step
// must serve on until a scheduler event, across L1 misses, on in-order and
// out-of-order cores alike. A loop that ended its run at the first miss
// would average under two references per Step on this stream. The count of
// references per Step call is deterministic, so this is a structural check,
// not a timing one.
func TestRunLoopServesManyReferencesPerStep(t *testing.T) {
	const minRefsPerStep = 20
	inorder := core.BaseConfig(1, 8*core.MB, 1)
	ooo := inorder
	ooo.OutOfOrder = true
	ooo.OOO = core.DefaultOOO()
	ooo.Name = "Base 1P OOO"
	for _, cfg := range []core.Config{inorder, ooo} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			sys := QuickOptions().build(cfg)
			var calls uint64
			for sys.Committed() < 100 && sys.Step() {
				calls++
			}
			refs := sys.Steps()
			if refs < minRefsPerStep*calls {
				t.Fatalf("%d references over %d Step calls = %.2f per Step, want at least %d",
					refs, calls, float64(refs)/float64(calls), minRefsPerStep)
			}
			t.Logf("%d references over %d Step calls = %.1f per Step", refs, calls, float64(refs)/float64(calls))
		})
	}
}
