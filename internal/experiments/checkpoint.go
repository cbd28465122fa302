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

func validPhase(p uint8) bool {
	return p == CheckpointWarmed || p == CheckpointMeasuring || p == CheckpointWarming
}

// ckptState is a run's protocol position: everything a checkpoint carries
// beyond the machine. measureBase is the committed-transaction count at the
// statistics reset (meaningful only for CheckpointMeasuring); done and prev
// are the completed phase segments and the cumulative collection they were
// cut against. The segments ride in the container because the machine's
// counters are cumulative: a resume could not re-derive earlier phase
// differences from machine state alone.
type ckptState struct {
	phase       uint8
	measureBase uint64
	done        []PhaseResult
	prev        stats.RunResult
}

// SaveCheckpoint writes a steady-state checkpoint container holding the
// machine state and the protocol position. measureBase is the
// committed-transaction count at the statistics reset (meaningful only for
// CheckpointMeasuring).
func SaveCheckpoint(out io.Writer, sys *core.System, phase uint8, measureBase uint64) error {
	w := snapshot.NewWriter()
	if err := saveCheckpoint(w, sys, &ckptState{phase: phase, measureBase: measureBase}, ""); err != nil {
		return err
	}
	return w.Emit(out)
}

// saveCheckpoint writes the checkpoint container into w as one flat
// stream: protocol (phase, measure base); schedule (the schedule
// fingerprint, "" for steady state, then the completed phase segments and
// the previous cumulative collection); then the machine's own sections
// (config, machine, directory, workload), written by System.SaveState.
func saveCheckpoint(w *snapshot.Writer, sys *core.System, st *ckptState, fingerprint string) error {
	if !validPhase(st.phase) {
		return fmt.Errorf("experiments: invalid checkpoint phase %d", st.phase)
	}
	e := w.Section("protocol")
	e.U8(st.phase)
	e.U64(st.measureBase)
	e = w.Section("schedule")
	e.String(fingerprint)
	e.Int(len(st.done))
	for i := range st.done {
		e.U64(st.done[i].StartTxn)
		st.done[i].Result.SaveState(e)
	}
	st.prev.SaveState(e)
	return sys.SaveState(w)
}

// scheduleLabel names a schedule fingerprint in an error message.
func scheduleLabel(fingerprint string) string {
	if fingerprint == "" {
		return "steady state"
	}
	return fmt.Sprintf("scenario %q", fingerprint)
}

// loadCheckpoint restores a checkpoint into sys, built from the identical
// configuration, and returns the protocol position. The stored schedule
// fingerprint must equal the resuming run's: resuming a steady run under a
// scenario, a scenario as steady, or one scenario under another would
// splice two parameter streams. phases bounds the completed segments. On
// error the system may be partially restored and must be discarded.
func loadCheckpoint(data []byte, sys *core.System, fingerprint string, phases int) (ckptState, error) {
	var st ckptState
	r, err := snapshot.NewReader(bytes.NewReader(data))
	if err != nil {
		return st, err
	}
	d, err := r.Section("protocol")
	if err != nil {
		return st, err
	}
	st.phase = d.U8()
	st.measureBase = d.U64()
	if err := d.Finish(); err != nil {
		return st, err
	}
	if !validPhase(st.phase) {
		return st, fmt.Errorf("experiments: checkpoint has invalid phase %d", st.phase)
	}
	d, err = r.Section("schedule")
	if err != nil {
		return st, err
	}
	fp := d.String()
	n := d.Int()
	if err := d.Err(); err != nil {
		return st, err
	}
	if fp != fingerprint {
		return st, fmt.Errorf("experiments: checkpoint schedule mismatch: written under %s, resuming under %s",
			scheduleLabel(fp), scheduleLabel(fingerprint))
	}
	if n < 0 || n > phases {
		return st, fmt.Errorf("experiments: checkpoint carries %d completed phases of %d", n, phases)
	}
	for i := 0; i < n; i++ {
		pr := PhaseResult{Index: i, StartTxn: d.U64()}
		if err := pr.Result.LoadState(d); err != nil {
			return st, err
		}
		st.done = append(st.done, pr)
	}
	if err := st.prev.LoadState(d); err != nil {
		return st, err
	}
	if err := d.Finish(); err != nil {
		return st, err
	}
	if err := sys.LoadState(r); err != nil {
		return st, err
	}
	return st, r.Finish()
}

// fits checks a resumed protocol position against the resuming run's
// warmup length and phase ends, given the restored machine's committed
// count. The schedule fingerprint cannot catch a change of length alone
// (steady state's is always ""), and without this check a finished run
// resumed with a longer MeasureTxns would return its old, shorter result,
// and one resumed with a shorter warmup or measurement would run past it.
func (st *ckptState) fits(committed, warmup uint64, ends []uint64) error {
	warmed := committed // the warmup a CheckpointWarmed container finished
	if st.phase == CheckpointMeasuring {
		warmed = st.measureBase
	}
	n := len(st.done)
	var msg string
	switch {
	case st.phase == CheckpointWarming:
		if committed > warmup {
			msg = fmt.Sprintf("checkpoint is %d transactions into warmup, this run warms up for %d", committed, warmup)
		}
	case warmed != warmup || committed < warmed:
		msg = fmt.Sprintf("checkpoint warmed up for %d transactions, this run warms up for %d", warmed, warmup)
	case n > 0 && st.prev.Txns != ends[n-1]:
		msg = fmt.Sprintf("checkpoint's completed phases measured %d transactions, this run's phase %d ends at %d",
			st.prev.Txns, n-1, ends[n-1])
	case n < len(ends) && committed-warmed > ends[n]:
		msg = fmt.Sprintf("checkpoint has measured %d transactions, past this run's phase %d end at %d",
			committed-warmed, n, ends[n])
	}
	if msg != "" {
		return fmt.Errorf("experiments: checkpoint protocol mismatch: %s", msg)
	}
	return nil
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
	// commits counted from the start of warmup and from the statistics
	// reset, and at the end of the run; 0 writes only the single
	// end-of-warmup checkpoint. The quantum never changes results: chunked
	// RunUntil lands on the same commit boundaries as an uninterrupted run.
	Every uint64
	// Write persists one checkpoint container (the format whose steady form
	// SaveCheckpoint writes).
	// Nil disables all checkpoint writes. Write must not retain the slice.
	Write func(data []byte) error
	// Resume, when non-nil, is a checkpoint container previously produced
	// against the identical configuration and options; the run continues
	// from it instead of starting cold. A container written under another
	// schedule, warmup or measurement length fails the run with an error
	// naming the mismatch.
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

// nextStop is the next stopping point after at: the next multiple of every
// (0 means none), capped at end.
func nextStop(at, every, end uint64) uint64 {
	if every == 0 {
		return end
	}
	return min((at/every+1)*every, end)
}

// RunCheckpointed executes one configuration under the protocol with
// periodic checkpointing, resume, and cooperative cancellation. It is the
// one measurement protocol every entry point goes through: it builds the
// machine (or resumes it from cr.Resume), warms up in checkpoint quanta,
// resets the statistics, then measures up to each phase boundary of
// Options.Scenario in quanta, cutting one PhaseResult per boundary. Steady
// state is the implicit one-phase schedule [MeasureTxns]. It returns the
// segmented result and the number of simulator steps executed in this
// process (a resumed run counts only the steps after the restore).
//
// Checkpoints are written after every cr.Every commits counted from the
// start of warmup and from the statistics reset, at the end of warmup, and
// at the end of the run. Phase boundaries are extra stops that only
// collect, so a job writes as many checkpoints with a schedule as without.
// No stop changes a result — RunUntil retires at most one commit per step,
// so chunked stepping lands on the same commit boundaries as an
// uninterrupted run — and checkpoint writes are read-only, so for any
// interleaving of checkpoint, kill, and resume the result is byte-identical
// to an uninterrupted run's (TestRunCheckpointedMatchesRun,
// TestScenarioCheckpointResumeEquivalence, TestServerResumeEquivalence).
func (o Options) RunCheckpointed(cfg core.Config, cr CheckpointRun) (ScenarioResult, uint64, error) {
	ends, names := o.phases()
	profile, fingerprint := "steady", ""
	if o.Scenario != nil {
		profile, fingerprint = o.Scenario.Name(), o.Scenario.Fingerprint()
	}
	sys := o.build(cfg)
	st := ckptState{phase: CheckpointWarming}
	var steps0 uint64
	if cr.Resume != nil {
		var err error
		if st, err = loadCheckpoint(cr.Resume, sys, fingerprint, len(ends)); err == nil {
			err = st.fits(sys.Committed(), o.WarmupTxns, ends)
		}
		if err != nil {
			return ScenarioResult{}, 0, fmt.Errorf("experiments: resuming checkpoint: %w", err)
		}
		steps0 = sys.Steps()
	}
	executed := func() uint64 { return sys.Steps() - steps0 }
	canceled := func() bool { return cr.Canceled != nil && cr.Canceled() }
	// One writer serves every checkpoint of the run: its buffer grows on
	// the first and is reused after, which Write's must-not-retain
	// contract allows.
	w := snapshot.NewWriter()
	write := func() error {
		if cr.Write == nil {
			return nil
		}
		w.Reset()
		err := saveCheckpoint(w, sys, &st, fingerprint)
		if err == nil {
			err = cr.Write(w.Bytes())
		}
		if err != nil {
			return fmt.Errorf("experiments: writing checkpoint: %w", err)
		}
		return nil
	}
	total := o.MeasuredTxns()
	progress := func(measured uint64) {
		if cr.OnProgress != nil {
			cr.OnProgress(measured, total)
		}
	}

	// Warmup. The mid-warmup checkpoints carry CheckpointWarming so a
	// resume knows warmup is still in flight.
	if st.phase == CheckpointWarming {
		for at := sys.Committed(); at < o.WarmupTxns; {
			if canceled() {
				return ScenarioResult{}, executed(), ErrCanceled
			}
			at = nextStop(at, cr.Every, o.WarmupTxns)
			sys.RunUntil(at)
			if at < o.WarmupTxns {
				if err := write(); err != nil {
					return ScenarioResult{}, executed(), err
				}
			}
		}
		st.phase = CheckpointWarmed
		if err := write(); err != nil {
			return ScenarioResult{}, executed(), err
		}
	}

	// Statistics reset at the warmup/measure boundary. A resume from a
	// CheckpointMeasuring container skips this: its statistics are already
	// accumulating.
	if st.phase == CheckpointWarmed {
		st.phase, st.measureBase = CheckpointMeasuring, sys.Committed()
		sys.ResetStats()
		progress(0)
	}

	// Measurement, at offsets from the statistics reset.
	base := st.measureBase
	for at := sys.Committed() - base; len(st.done) < len(ends); {
		if canceled() {
			return ScenarioResult{}, executed(), ErrCanceled
		}
		i := len(st.done)
		at = nextStop(at, cr.Every, ends[i])
		sys.RunUntil(base + at)
		if at == ends[i] {
			cum := sys.Collect(cfg.Name, sys.Committed()-base)
			seg := stats.Sub(&cum, &st.prev)
			seg.Name = names[i]
			var start uint64
			if i > 0 {
				start = ends[i-1]
			}
			st.done = append(st.done, PhaseResult{Index: i, StartTxn: start, Result: seg})
			st.prev = cum
		}
		if at == total || cr.Every > 0 && at%cr.Every == 0 {
			if cr.Every > 0 {
				if err := write(); err != nil {
					return ScenarioResult{}, executed(), err
				}
			}
			progress(at)
		}
	}
	return ScenarioResult{Profile: profile, Config: cfg.Name, Phases: st.done, Total: st.prev}, executed(), nil
}

// phases returns where each measured phase ends, as offsets from the
// statistics reset, and its name: the scenario's phases, or for steady
// state the one phase [MeasureTxns].
func (o Options) phases() (ends []uint64, names []string) {
	s := o.Scenario
	if s == nil {
		return []uint64{o.MeasureTxns}, []string{"steady"}
	}
	for i := 0; i < s.NumPhases(); i++ {
		ends = append(ends, s.Boundary(i))
		names = append(names, s.PhaseName(i))
	}
	return ends, names
}
