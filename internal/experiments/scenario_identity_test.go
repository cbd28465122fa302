package experiments

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"oltpsim/internal/core"
	"oltpsim/internal/oltp"
	"oltpsim/internal/snapshot"
)

// TestScenarioExecutionPathIdentity is the equivalence of the two stepping
// paths for phased runs: per-reference stepping and the run loop must
// produce byte-identical ScenarioResults for every reference profile. Phase
// boundaries are commit counts and both paths retire commits at the same
// steps, so the phase switches land on identical transactions.
func TestScenarioExecutionPathIdentity(t *testing.T) {
	cfg := core.FullConfig(8, 2*core.MB, 8)
	for _, p := range scenarioProfiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			o := invariantOptions()
			o.Scenario = compileProfile(t, p)

			ref := o.RunScenario(cfg)

			noFF := o
			noFF.NoFastForward = true
			if got := noFF.RunScenario(cfg); !reflect.DeepEqual(got, ref) {
				t.Errorf("per-reference stepping diverged from the run loop")
			}
		})
	}
}

// TestScenarioSinglePhaseIsSteadyState pins the opt-in contract at its
// sharpest point: a single-phase pure-update profile must reproduce the
// steady-state run byte for byte — the identical RunResult and the
// identical final machine state — because the degenerate schedule draws
// from exactly the same RNG stream as the steady generator.
func TestScenarioSinglePhaseIsSteadyState(t *testing.T) {
	cfg := core.FullConfig(8, 2*core.MB, 8)
	o := invariantOptions()

	steady := o
	sysSteady := core.MustNewSystem(cfg, oltp.MustNewHarness(steady.Params(cfg)))
	sysSteady.SetFastForward(true)
	refRes := sysSteady.Run(steady.WarmupTxns, steady.MeasureTxns)
	refRes.Name = cfg.Name

	phased := o
	phased.Scenario = compileProfile(t, steadyProfile(o.MeasureTxns))
	sysPhased := core.MustNewSystem(cfg, oltp.MustNewHarness(phased.Params(cfg)))
	sysPhased.SetFastForward(true)
	sysPhased.RunUntil(phased.WarmupTxns)
	sysPhased.ResetStats()
	base := sysPhased.Committed()
	sysPhased.RunUntil(base + phased.Scenario.TotalTxns())
	gotRes := sysPhased.Collect(cfg.Name, sysPhased.Committed()-base)

	if !reflect.DeepEqual(gotRes, refRes) {
		t.Errorf("single-phase scenario result differs from steady state:\n got %+v\nwant %+v", gotRes, refRes)
	}

	refState, gotState := checkpointBytes(t, sysSteady), checkpointBytes(t, sysPhased)
	if !bytes.Equal(refState, gotState) {
		t.Errorf("final machine state differs: steady %d bytes, phased %d bytes",
			len(refState), len(gotState))
	}

	// The segmented runner reports the same total.
	sr := phased.RunScenario(cfg)
	if !reflect.DeepEqual(sr.Total, refRes) {
		t.Errorf("RunScenario total differs from steady-state result")
	}
	if len(sr.Phases) != 1 || !reflect.DeepEqual(sr.Phases[0].Result.Txns, refRes.Txns) {
		t.Errorf("degenerate schedule did not produce one full-length segment")
	}
}

// TestScenarioCheckpointResumeEquivalence kills a phased run mid-phase and
// resumes it from a checkpoint written inside phase two: the resumed run's
// ScenarioResult — including the segments completed before the kill, which
// ride in the checkpoint container — must equal the uninterrupted run's
// exactly.
func TestScenarioCheckpointResumeEquivalence(t *testing.T) {
	cfg := core.FullConfig(8, 2*core.MB, 8)
	o := invariantOptions()
	o.Scenario = compileProfile(t, burstProfile())

	ref := o.RunScenario(cfg)

	var checkpoints [][]byte
	full, _, err := o.RunCheckpointed(cfg, CheckpointRun{
		Every: 17,
		Write: func(data []byte) error {
			checkpoints = append(checkpoints, append([]byte(nil), data...))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, ref) {
		t.Fatalf("checkpointed run differs from plain run")
	}
	if len(checkpoints) < 4 {
		t.Fatalf("expected several checkpoints, got %d", len(checkpoints))
	}

	// Resume from every checkpoint — end-of-warmup, mid-phase, and
	// end-of-phase snapshots alike must all converge on the same result.
	for i, ck := range checkpoints {
		resumed, _, err := o.RunCheckpointed(cfg, CheckpointRun{Resume: ck})
		if err != nil {
			t.Fatalf("resuming checkpoint %d: %v", i, err)
		}
		if !reflect.DeepEqual(resumed, ref) {
			t.Errorf("resume from checkpoint %d diverged from uninterrupted run", i)
		}
	}
}

// TestScenarioCheckpointFingerprintGuard: a checkpoint resumes only under
// the schedule, the protocol lengths and the container version that wrote
// it. Each case resumes
// a container under the wrong options and must fail with an error naming
// the mismatch — never a cryptic section error, never a silent splice of
// two parameter streams.
func TestScenarioCheckpointFingerprintGuard(t *testing.T) {
	cfg := core.BaseConfig(1, 8*core.MB, 1)
	steady := invariantOptions()
	flip, drift := steady, steady
	flip.Scenario = compileProfile(t, mixFlipProfile())
	drift.Scenario = compileProfile(t, skewDriftProfile())

	// checkpoints runs o with a 40-transaction quantum and returns every
	// container it wrote, in order.
	checkpoints := func(o Options) [][]byte {
		var cks [][]byte
		if _, _, err := o.RunCheckpointed(cfg, CheckpointRun{
			Every: 40,
			Write: func(data []byte) error {
				cks = append(cks, append([]byte(nil), data...))
				return nil
			},
		}); err != nil {
			t.Fatal(err)
		}
		if cks == nil {
			t.Fatal("no checkpoint written")
		}
		return cks
	}
	// Warmup 60, measure 120, quantum 40: mid-warmup at 40, end of warmup,
	// then 40, 80 and 120 transactions into measurement.
	steadyCks, flipCks := checkpoints(steady), checkpoints(flip)
	steadyCk, flipCk := steadyCks[len(steadyCks)-1], flipCks[len(flipCks)-1]
	if len(steadyCks) != 5 {
		t.Fatalf("steady run wrote %d checkpoints, want 5", len(steadyCks))
	}
	midWarmupCk, midMeasureCk := steadyCks[0], steadyCks[3]
	longer, shorter, warmer, cooler := steady, steady, steady, steady
	longer.MeasureTxns += 40
	shorter.MeasureTxns -= 60
	warmer.WarmupTxns += 40
	cooler.WarmupTxns -= 40
	v1Ck := append([]byte(nil), steadyCk...)
	binary.LittleEndian.PutUint32(v1Ck[len(snapshot.Magic):], 1)

	for _, tc := range []struct {
		name   string
		ck     []byte
		resume Options
		want   string
	}{
		{"steady resumed under a scenario", steadyCk, flip, "schedule mismatch"},
		{"scenario resumed as steady", flipCk, steady, "schedule mismatch"},
		{"scenario resumed under another scenario", flipCk, drift, "schedule mismatch"},
		{"version 1 container", v1Ck, steady, "version 1"},
		{"finished steady run resumed with a longer measurement", steadyCk, longer, "protocol mismatch"},
		{"finished steady run resumed with a shorter measurement", steadyCk, shorter, "protocol mismatch"},
		{"finished steady run resumed with a longer warmup", steadyCk, warmer, "protocol mismatch"},
		{"mid-measurement resumed past a shorter measurement", midMeasureCk, shorter, "protocol mismatch"},
		{"mid-warmup resumed past a shorter warmup", midWarmupCk, cooler, "protocol mismatch"},
	} {
		_, _, err := tc.resume.RunCheckpointed(cfg, CheckpointRun{Resume: tc.ck})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}
