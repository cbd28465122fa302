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
// every counter — and save→load→save of the checkpoint container must
// reproduce it byte for byte.
func TestSnapshotEquivalence(t *testing.T) {
	o := invariantOptions()
	for _, cfg := range invariantConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			// Uninterrupted reference run through the public protocol.
			resA := o.Run(cfg)

			// The same run, checkpointing its warm state mid-flight. Saving is
			// read-only, so this run must match the reference exactly.
			sysB := core.MustNewSystem(cfg, oltp.MustNewHarness(o.Params(cfg)))
			sysB.RunUntil(o.WarmupTxns)
			warm := checkpointBytes(t, sysB)
			resB := sysB.RunMeasured(o.MeasureTxns)
			resB.Name = cfg.Name
			if !reflect.DeepEqual(resA, resB) {
				t.Fatalf("saving a snapshot perturbed the run:\n%+v\nvs\n%+v", resA, resB)
			}
			finalB := checkpointBytes(t, sysB)

			// Restore into a fresh machine; the round trip must be byte-stable.
			sysC := core.MustNewSystem(cfg, oltp.MustNewHarness(o.Params(cfg)))
			if _, err := loadCheckpoint(warm, sysC, "", 1); err != nil {
				t.Fatalf("load warm state: %v", err)
			}
			if !bytes.Equal(warm, checkpointBytes(t, sysC)) {
				t.Fatal("save-load-save warm state is not byte-stable")
			}

			// Resume: result and complete final machine state must match the
			// uninterrupted run bit for bit.
			resC := sysC.RunMeasured(o.MeasureTxns)
			resC.Name = cfg.Name
			if !reflect.DeepEqual(resB, resC) {
				t.Fatalf("resumed result diverges:\n%+v\nvs\n%+v", resB, resC)
			}
			if !bytes.Equal(finalB, checkpointBytes(t, sysC)) {
				t.Fatal("final machine state diverges after resume")
			}
			checkConservation(t, cfg, sysC, resC)
		})
	}
}

// checkpointBytes encodes sys as an end-of-warmup steady-state checkpoint
// container, the form every comparison of machine state goes through.
func checkpointBytes(t *testing.T, sys *core.System) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := SaveCheckpoint(&b, sys, CheckpointWarmed, 0); err != nil {
		t.Fatalf("save checkpoint: %v", err)
	}
	return b.Bytes()
}

// TestSnapshotCheckpointResume exercises the checkpoint container by hand:
// the steady containers SaveCheckpoint writes at the end of warmup and in
// mid-measurement, resumed in a fresh machine through RunCheckpointed,
// report the same one-segment result as an uninterrupted run.
func TestSnapshotCheckpointResume(t *testing.T) {
	o := invariantOptions()
	cfg := core.FullConfig(8, 2*core.MB, 8)
	want := o.Run(cfg)

	sys := o.build(cfg)
	sys.RunUntil(o.WarmupTxns)
	var warmCk bytes.Buffer
	if err := SaveCheckpoint(&warmCk, sys, CheckpointWarmed, 0); err != nil {
		t.Fatalf("save warm checkpoint: %v", err)
	}
	base := sys.Committed()
	sys.ResetStats()
	sys.RunUntil(base + o.MeasureTxns/2)
	var midCk bytes.Buffer
	if err := SaveCheckpoint(&midCk, sys, CheckpointMeasuring, base); err != nil {
		t.Fatalf("save mid checkpoint: %v", err)
	}

	for _, ck := range []struct {
		name string
		data []byte
	}{
		{"end of warmup", warmCk.Bytes()},
		{"mid-measurement", midCk.Bytes()},
	} {
		sr, _, err := o.RunCheckpointed(cfg, CheckpointRun{Resume: ck.data})
		if err != nil {
			t.Fatalf("%s: resume: %v", ck.name, err)
		}
		if len(sr.Phases) != 1 || !reflect.DeepEqual(sr.Total, want) {
			t.Fatalf("%s: resume diverges (%d segments):\n%+v\nvs\n%+v", ck.name, len(sr.Phases), sr.Total, want)
		}
	}
}

// TestSnapshotConfigMismatch: restoring into a machine of a different shape
// must fail loudly, never silently produce a franken-state.
func TestSnapshotConfigMismatch(t *testing.T) {
	o := invariantOptions()
	src := core.BaseConfig(8, 8*core.MB, 1)
	sys := o.build(src)
	sys.RunUntil(o.WarmupTxns)
	snap := checkpointBytes(t, sys)
	other := o.build(core.FullConfig(8, 2*core.MB, 8))
	if _, err := loadCheckpoint(snap, other, "", 1); err == nil {
		t.Fatal("loading a snapshot into a different configuration succeeded")
	}
}
