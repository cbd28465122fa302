package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"oltpsim/internal/core"
	"oltpsim/internal/snapshot"
	"oltpsim/internal/stats"
)

// Checkpoint phases record where in the warmup/measure protocol a snapshot
// was taken, so a resumed process knows whether statistics still need their
// post-warmup reset.
const (
	// CheckpointWarmed marks a checkpoint taken at the end of warmup, before
	// the statistics reset: resuming starts the measurement phase afresh.
	CheckpointWarmed uint8 = 1
	// CheckpointMeasuring marks a mid-measurement checkpoint: statistics are
	// already accumulating and resuming continues without a reset.
	CheckpointMeasuring uint8 = 2
	// CheckpointWarming marks a mid-warmup checkpoint: the run has not
	// reached Options.WarmupTxns yet, and resuming (under identical options)
	// finishes the warmup before the statistics reset.
	CheckpointWarming uint8 = 3
)

// SaveCheckpoint writes the machine state plus the protocol position.
// measureBase is the committed-transaction count at the statistics reset
// (meaningful only for CheckpointMeasuring).
func SaveCheckpoint(out io.Writer, sys *core.System, phase uint8, measureBase uint64) error {
	w := snapshot.NewWriter()
	if err := saveCheckpoint(w, sys, phase, measureBase); err != nil {
		return err
	}
	return w.Emit(out)
}

// saveCheckpoint writes the SaveCheckpoint container into w: the protocol
// section, then the machine's stream nested in place as the system
// section.
func saveCheckpoint(w *snapshot.Writer, sys *core.System, phase uint8, measureBase uint64) error {
	if !validPhase(phase) {
		return fmt.Errorf("experiments: invalid checkpoint phase %d", phase)
	}
	e := w.Section("protocol")
	e.U8(phase)
	e.U64(measureBase)
	return w.Nest("system", sys.SaveTo)
}

// LoadCheckpoint restores a checkpoint into a system built from the
// identical configuration and returns the protocol position. On error the
// system may be partially restored and must be discarded.
func LoadCheckpoint(in io.Reader, sys *core.System) (phase uint8, measureBase uint64, err error) {
	r, err := snapshot.NewReader(in)
	if err != nil {
		return 0, 0, err
	}
	d, err := r.Section("protocol")
	if err != nil {
		return 0, 0, err
	}
	phase = d.U8()
	measureBase = d.U64()
	if err := d.Finish(); err != nil {
		return 0, 0, err
	}
	if !validPhase(phase) {
		return 0, 0, fmt.Errorf("experiments: checkpoint has invalid phase %d", phase)
	}
	d, err = r.Section("system")
	if err != nil {
		return 0, 0, err
	}
	payload := d.U8s()
	if err := d.Finish(); err != nil {
		return 0, 0, err
	}
	if err := r.Finish(); err != nil {
		return 0, 0, err
	}
	if err := sys.Load(bytes.NewReader(payload)); err != nil {
		return 0, 0, err
	}
	return phase, measureBase, nil
}

func validPhase(p uint8) bool {
	return p == CheckpointWarmed || p == CheckpointMeasuring || p == CheckpointWarming
}

// ErrCanceled is returned by RunCheckpointed when CheckpointRun.Canceled
// reported cancellation at a quantum boundary. The machine state behind the
// most recent checkpoint write is intact, so a canceled run is resumable.
var ErrCanceled = errors.New("experiments: run canceled")

// CheckpointRun configures one checkpointed execution of the
// warmup/measure protocol: how often to persist the machine state, where
// the bytes go, what to resume from, and the cooperative hooks the job
// server drives its progress stream and cancellation from.
type CheckpointRun struct {
	// Every is the checkpoint quantum in committed transactions. When > 0
	// (and Write is set), the run persists a checkpoint after every Every
	// commits during warmup and measurement; 0 writes only the single
	// end-of-warmup checkpoint. The quantum never changes results: chunked
	// RunUntil lands on the same commit boundaries as an uninterrupted run.
	Every uint64
	// Write persists one checkpoint container (the SaveCheckpoint format).
	// Nil disables all checkpoint writes. Write must not retain the slice.
	Write func(data []byte) error
	// Resume, when non-nil, is a checkpoint container previously produced
	// against the identical configuration and options; the run continues
	// from it instead of starting cold.
	Resume []byte
	// Canceled, when non-nil, is polled before every protocol quantum; once
	// it returns true the run stops and RunCheckpointed returns ErrCanceled.
	// Polling happens at quantum boundaries only, so Every bounds the
	// cancellation latency in committed transactions.
	Canceled func() bool
	// OnProgress, when non-nil, observes measurement progress: it is called
	// with (0, target) at the statistics reset and (measured, target) after
	// every measurement quantum. Calls are synchronous with the run.
	OnProgress func(measured, target uint64)
}

// RunCheckpointed executes one configuration under the protocol with
// periodic checkpointing, resume, and cooperative cancellation. It returns
// the run result and the number of simulator steps executed in this
// process (a resumed run counts only the steps after the restore).
//
// The step sequence is identical to Options.Run — checkpoint writes are
// read-only and the chunked RunUntil loop stops on the same commit
// boundaries — so for any interleaving of checkpoint, kill, and resume the
// final RunResult is byte-identical to an uninterrupted run's
// (TestRunCheckpointedMatchesRun, TestServerResumeEquivalence).
// Options.WarmSnapshot is ignored here: warm-state reuse and per-job
// checkpoint streams answer different questions about where machine state
// comes from, and mixing them would make the resume story ambiguous.
func (o Options) RunCheckpointed(cfg core.Config, cr CheckpointRun) (stats.RunResult, uint64, error) {
	sys := o.build(cfg)
	phase := CheckpointWarming
	var measureBase, steps0 uint64
	if cr.Resume != nil {
		p, base, err := LoadCheckpoint(bytes.NewReader(cr.Resume), sys)
		if err != nil {
			return stats.RunResult{}, 0, fmt.Errorf("experiments: resuming checkpoint: %w", err)
		}
		phase = p
		steps0 = sys.Steps()
		if phase == CheckpointMeasuring {
			measureBase = base
		}
	}
	canceled := func() bool { return cr.Canceled != nil && cr.Canceled() }
	executed := func() uint64 { return sys.Steps() - steps0 }
	// One writer serves every checkpoint of the run: its buffer grows on
	// the first and is reused after, which Write's must-not-retain
	// contract allows.
	w := snapshot.NewWriter()
	write := func(ph uint8, base uint64) error {
		if cr.Write == nil {
			return nil
		}
		w.Reset()
		if err := saveCheckpoint(w, sys, ph, base); err != nil {
			return err
		}
		return cr.Write(w.Bytes())
	}

	// Warmup, chunked by the checkpoint quantum. The mid-warmup checkpoints
	// carry CheckpointWarming so a resume knows warmup is still in flight.
	if phase == CheckpointWarming {
		for sys.Committed() < o.WarmupTxns {
			if canceled() {
				return stats.RunResult{}, executed(), ErrCanceled
			}
			next := o.WarmupTxns
			if cr.Every > 0 && sys.Committed()+cr.Every < next {
				next = sys.Committed() + cr.Every
			}
			sys.RunUntil(next)
			if next < o.WarmupTxns && cr.Every > 0 {
				if err := write(CheckpointWarming, 0); err != nil {
					return stats.RunResult{}, executed(), fmt.Errorf("experiments: writing checkpoint: %w", err)
				}
			}
		}
		phase = CheckpointWarmed
		if err := write(CheckpointWarmed, 0); err != nil {
			return stats.RunResult{}, executed(), fmt.Errorf("experiments: writing checkpoint: %w", err)
		}
	}

	// Statistics reset at the warmup/measure boundary. A resume from a
	// CheckpointMeasuring container skips this: its statistics are already
	// accumulating.
	if phase == CheckpointWarmed {
		measureBase = sys.Committed()
		sys.ResetStats()
		if cr.OnProgress != nil {
			cr.OnProgress(0, o.MeasuredTxns())
		}
	}

	// Measurement, chunked by the checkpoint quantum.
	target := measureBase + o.MeasuredTxns()
	for sys.Committed() < target {
		if canceled() {
			return stats.RunResult{}, executed(), ErrCanceled
		}
		next := target
		if cr.Every > 0 && sys.Committed()+cr.Every < next {
			next = sys.Committed() + cr.Every
		}
		sys.RunUntil(next)
		if cr.Every > 0 {
			if err := write(CheckpointMeasuring, measureBase); err != nil {
				return stats.RunResult{}, executed(), fmt.Errorf("experiments: writing checkpoint: %w", err)
			}
		}
		if cr.OnProgress != nil {
			cr.OnProgress(sys.Committed()-measureBase, o.MeasuredTxns())
		}
	}
	res := sys.Collect(cfg.Name, sys.Committed()-measureBase)
	res.Name = cfg.Name
	return res, executed(), nil
}
