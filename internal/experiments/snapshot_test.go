package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"oltpsim/internal/core"
	"oltpsim/internal/oltp"
)

// TestSnapshotEquivalence is the determinism contract for checkpoint/restore:
// for every machine shape the figures sweep, a run that saves its warm state,
// is discarded, and resumes in a freshly built machine must be bit-identical
// to an uninterrupted run — same RunResult, same final machine state down to
// every counter — and Save→Load→Save must reproduce the snapshot byte for
// byte.
func TestSnapshotEquivalence(t *testing.T) {
	o := invariantOptions()
	for _, cfg := range invariantConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			// Uninterrupted reference run through the public protocol.
			resA := o.Run(cfg)

			// The same run, checkpointing its warm state mid-flight. Save is
			// read-only, so this run must match the reference exactly.
			sysB := core.MustNewSystem(cfg, oltp.MustNewHarness(o.Params(cfg)))
			sysB.RunUntil(o.WarmupTxns)
			var warm bytes.Buffer
			if err := sysB.Save(&warm); err != nil {
				t.Fatalf("save warm state: %v", err)
			}
			resB := sysB.RunMeasured(o.MeasureTxns)
			resB.Name = cfg.Name
			if !reflect.DeepEqual(resA, resB) {
				t.Fatalf("saving a snapshot perturbed the run:\n%+v\nvs\n%+v", resA, resB)
			}
			var finalB bytes.Buffer
			if err := sysB.Save(&finalB); err != nil {
				t.Fatalf("save final state: %v", err)
			}

			// Restore into a fresh machine; the round trip must be byte-stable.
			sysC := core.MustNewSystem(cfg, oltp.MustNewHarness(o.Params(cfg)))
			if err := sysC.Load(bytes.NewReader(warm.Bytes())); err != nil {
				t.Fatalf("load warm state: %v", err)
			}
			var warm2 bytes.Buffer
			if err := sysC.Save(&warm2); err != nil {
				t.Fatalf("re-save warm state: %v", err)
			}
			if !bytes.Equal(warm.Bytes(), warm2.Bytes()) {
				t.Fatal("save-load-save warm state is not byte-stable")
			}

			// Resume: result and complete final machine state must match the
			// uninterrupted run bit for bit.
			resC := sysC.RunMeasured(o.MeasureTxns)
			resC.Name = cfg.Name
			if !reflect.DeepEqual(resB, resC) {
				t.Fatalf("resumed result diverges:\n%+v\nvs\n%+v", resB, resC)
			}
			var finalC bytes.Buffer
			if err := sysC.Save(&finalC); err != nil {
				t.Fatalf("save resumed final state: %v", err)
			}
			if !bytes.Equal(finalB.Bytes(), finalC.Bytes()) {
				t.Fatal("final machine state diverges after resume")
			}
			checkConservation(t, cfg, sysC, resC)
		})
	}
}

// TestSnapshotWarmReuse locks the Options.WarmSnapshot contract: a sweep run
// with warm-state sharing returns results bit-identical to the cold sweep,
// while identical machine shapes share one cached snapshot.
func TestSnapshotWarmReuse(t *testing.T) {
	o := invariantOptions()
	// Without a result cache, Base and Base again both run, so the second
	// restores the first's snapshot, and the again sweep restores for all.
	o.Results = nil
	cfgs := []core.Config{
		core.BaseConfig(8, 8*core.MB, 1),
		label(core.BaseConfig(8, 8*core.MB, 1), "Base again"),
		core.FullConfig(8, 2*core.MB, 8),
	}
	cold := o.RunMany(cfgs)

	wo := o
	wo.WarmSnapshot = NewWarmCache()
	warm := wo.RunMany(cfgs)

	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm-reuse sweep diverges from cold sweep:\n%+v\nvs\n%+v", cold, warm)
	}
	if n := len(wo.WarmSnapshot.Entries()); n != 2 {
		t.Fatalf("cache holds %d snapshots, want 2 (two distinct machine shapes)", n)
	}

	// A second sweep against the populated cache is pure reuse and must
	// still match.
	again := wo.RunMany(cfgs)
	if !reflect.DeepEqual(cold, again) {
		t.Fatalf("second warm-reuse sweep diverges from cold sweep")
	}
}

// TestSnapshotCheckpointResume exercises the CLI checkpoint protocol: a run
// interrupted mid-measurement and resumed in a fresh machine reports the
// same result as an uninterrupted run.
func TestSnapshotCheckpointResume(t *testing.T) {
	o := invariantOptions()
	cfg := core.FullConfig(8, 2*core.MB, 8)
	resA := o.Run(cfg)

	h := oltp.MustNewHarness(o.Params(cfg))
	sys := core.MustNewSystem(cfg, h)
	sys.RunUntil(o.WarmupTxns)

	// Warm-phase checkpoint.
	var warmCk bytes.Buffer
	if err := SaveCheckpoint(&warmCk, sys, CheckpointWarmed, 0); err != nil {
		t.Fatalf("save warm checkpoint: %v", err)
	}

	// Keep running to mid-measurement and checkpoint again.
	base := h.Committed()
	sys.ResetStats()
	sys.RunUntil(base + o.MeasureTxns/2)
	var midCk bytes.Buffer
	if err := SaveCheckpoint(&midCk, sys, CheckpointMeasuring, base); err != nil {
		t.Fatalf("save mid checkpoint: %v", err)
	}

	// Resume from the warm checkpoint: full measurement phase.
	h2 := oltp.MustNewHarness(o.Params(cfg))
	sys2 := core.MustNewSystem(cfg, h2)
	phase, _, err := LoadCheckpoint(bytes.NewReader(warmCk.Bytes()), sys2)
	if err != nil {
		t.Fatalf("load warm checkpoint: %v", err)
	}
	if phase != CheckpointWarmed {
		t.Fatalf("warm checkpoint reports phase %d", phase)
	}
	resWarm := sys2.RunMeasured(o.MeasureTxns)
	resWarm.Name = cfg.Name
	if !reflect.DeepEqual(resA, resWarm) {
		t.Fatalf("warm-checkpoint resume diverges:\n%+v\nvs\n%+v", resA, resWarm)
	}

	// Resume from the mid-measurement checkpoint: continue without a reset.
	h3 := oltp.MustNewHarness(o.Params(cfg))
	sys3 := core.MustNewSystem(cfg, h3)
	phase, base3, err := LoadCheckpoint(bytes.NewReader(midCk.Bytes()), sys3)
	if err != nil {
		t.Fatalf("load mid checkpoint: %v", err)
	}
	if phase != CheckpointMeasuring || base3 != base {
		t.Fatalf("mid checkpoint reports phase %d base %d, want %d base %d",
			phase, base3, CheckpointMeasuring, base)
	}
	sys3.RunUntil(base3 + o.MeasureTxns)
	resMid := sys3.Collect(cfg.Name, h3.Committed()-base3)
	resMid.Name = cfg.Name
	if !reflect.DeepEqual(resA, resMid) {
		t.Fatalf("mid-measurement resume diverges:\n%+v\nvs\n%+v", resA, resMid)
	}
}

// TestSnapshotConfigMismatch: restoring into a machine of a different shape
// must fail loudly, never silently produce a franken-state.
func TestSnapshotConfigMismatch(t *testing.T) {
	o := invariantOptions()
	src := core.BaseConfig(8, 8*core.MB, 1)
	sys := o.build(src)
	sys.RunUntil(o.WarmupTxns)
	var snap bytes.Buffer
	if err := sys.Save(&snap); err != nil {
		t.Fatalf("save: %v", err)
	}
	other := o.build(core.FullConfig(8, 2*core.MB, 8))
	if err := other.Load(bytes.NewReader(snap.Bytes())); err == nil {
		t.Fatal("loading a snapshot into a different configuration succeeded")
	}
}
