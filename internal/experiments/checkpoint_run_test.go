package experiments

import (
	"errors"
	"reflect"
	"testing"

	"oltpsim/internal/core"
)

// checkpointRunOptions is the quick protocol the RunCheckpointed suite
// drives: long enough that every checkpoint quantum under test fires at
// least once in both warmup and measurement.
func checkpointRunOptions() Options {
	o := QuickOptions()
	o.WarmupTxns, o.MeasureTxns = 90, 180
	return o
}

// TestRunCheckpointedMatchesRun: for every checkpoint quantum, a fully
// checkpointed run produces a RunResult byte-identical to Options.Run, and
// every checkpoint written along the way resumes to that same result.
func TestRunCheckpointedMatchesRun(t *testing.T) {
	cfgs := []core.Config{
		core.BaseConfig(1, 1*core.MB, 1),
		core.FullConfig(2, 1*core.MB, 2),
	}
	for _, cfg := range cfgs {
		o := checkpointRunOptions()
		want := o.Run(cfg)
		for _, every := range []uint64{25, 60, 121} {
			var checkpoints [][]byte
			res, steps, err := o.RunCheckpointed(cfg, CheckpointRun{
				Every: every,
				Write: func(data []byte) error {
					checkpoints = append(checkpoints, append([]byte(nil), data...))
					return nil
				},
			})
			if err != nil {
				t.Fatalf("%s every=%d: %v", cfg.Name, every, err)
			}
			if steps == 0 {
				t.Errorf("%s every=%d: reported zero steps", cfg.Name, every)
			}
			if !reflect.DeepEqual(res.Total, want) {
				t.Errorf("%s every=%d: checkpointed result diverges from Options.Run", cfg.Name, every)
			}
			if len(checkpoints) < 3 {
				t.Fatalf("%s every=%d: only %d checkpoints written", cfg.Name, every, len(checkpoints))
			}
			// Resuming from every checkpoint — mid-warmup, end-of-warmup, and
			// mid-measurement alike — must land on the identical result.
			for i, ck := range checkpoints {
				resumed, _, err := o.RunCheckpointed(cfg, CheckpointRun{Resume: ck})
				if err != nil {
					t.Fatalf("%s every=%d resume %d: %v", cfg.Name, every, i, err)
				}
				if !reflect.DeepEqual(resumed.Total, want) {
					t.Errorf("%s every=%d: resume from checkpoint %d diverges", cfg.Name, every, i)
				}
			}
		}
	}
}

// TestRunCheckpointedNoQuantum: Every == 0 writes exactly one checkpoint
// (end of warmup) and still matches Options.Run.
func TestRunCheckpointedNoQuantum(t *testing.T) {
	cfg := core.BaseConfig(1, 1*core.MB, 1)
	o := checkpointRunOptions()
	want := o.Run(cfg)
	var n int
	res, _, err := o.RunCheckpointed(cfg, CheckpointRun{
		Write: func(data []byte) error { n++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("wrote %d checkpoints, want 1 (end of warmup only)", n)
	}
	if !reflect.DeepEqual(res.Total, want) {
		t.Error("result diverges from Options.Run")
	}
}

// TestRunCheckpointedCancel: cancellation is honored at quantum boundaries
// in both phases, returns ErrCanceled, and a run resumed from the last
// checkpoint before the cancel still converges to the uninterrupted result.
func TestRunCheckpointedCancel(t *testing.T) {
	cfg := core.BaseConfig(1, 1*core.MB, 1)
	o := checkpointRunOptions()
	want := o.Run(cfg)

	// Cancel after the k-th checkpoint write, for several k: early warmup,
	// around the phase boundary, and mid-measurement.
	for _, after := range []int{1, 3, 6} {
		var last []byte
		writes := 0
		_, _, err := o.RunCheckpointed(cfg, CheckpointRun{
			Every: 30,
			Write: func(data []byte) error {
				writes++
				last = append(last[:0], data...)
				return nil
			},
			Canceled: func() bool { return writes >= after },
		})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("after=%d: err = %v, want ErrCanceled", after, err)
		}
		if writes < after {
			t.Fatalf("after=%d: only %d writes before cancel", after, writes)
		}
		resumed, _, err := o.RunCheckpointed(cfg, CheckpointRun{Resume: last})
		if err != nil {
			t.Fatalf("after=%d: resume: %v", after, err)
		}
		if !reflect.DeepEqual(resumed.Total, want) {
			t.Errorf("after=%d: resumed result diverges from uninterrupted run", after)
		}
	}

	// Canceled before any work: no checkpoint, ErrCanceled immediately.
	_, steps, err := o.RunCheckpointed(cfg, CheckpointRun{
		Canceled: func() bool { return true },
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled run: err = %v, want ErrCanceled", err)
	}
	if steps != 0 {
		t.Errorf("pre-canceled run executed %d steps, want 0", steps)
	}
}

// TestRunCheckpointedProgress: OnProgress reports (0, target) at the
// statistics reset, is non-decreasing, and ends exactly at the target.
func TestRunCheckpointedProgress(t *testing.T) {
	cfg := core.BaseConfig(1, 1*core.MB, 1)
	o := checkpointRunOptions()
	var measured []uint64
	_, _, err := o.RunCheckpointed(cfg, CheckpointRun{
		Every: 40,
		OnProgress: func(m, target uint64) {
			if target != o.MeasureTxns {
				t.Errorf("OnProgress target = %d, want %d", target, o.MeasureTxns)
			}
			measured = append(measured, m)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(measured) < 3 {
		t.Fatalf("only %d progress calls", len(measured))
	}
	if measured[0] != 0 {
		t.Errorf("first progress call reported %d, want 0 (statistics reset)", measured[0])
	}
	for i := 1; i < len(measured); i++ {
		if measured[i] < measured[i-1] {
			t.Errorf("progress regressed: %v", measured)
		}
	}
	if last := measured[len(measured)-1]; last < o.MeasureTxns {
		t.Errorf("final progress %d below target %d", last, o.MeasureTxns)
	}
}
