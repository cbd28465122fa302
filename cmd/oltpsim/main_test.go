package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"oltpsim/internal/core"
	"oltpsim/internal/experiments"
)

// testOptions is a protocol short enough for a unit test that still writes
// checkpoints during warmup and measurement at a 40-transaction quantum.
func testOptions() experiments.Options {
	o := experiments.QuickOptions()
	o.WarmupTxns, o.MeasureTxns = 60, 120
	return o
}

// TestCheckpointFailedWriteKeepsPrevious: a checkpoint write that fails
// leaves the previous checkpoint file byte-identical, so a run whose write
// fails or is killed midway still has its last restart point.
func TestCheckpointFailedWriteKeepsPrevious(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	cr, err := checkpointIO("", path, 40)
	if err != nil {
		t.Fatal(err)
	}
	prev := []byte("previous checkpoint")
	if err := cr.Write(prev); err != nil {
		t.Fatal(err)
	}
	// A directory squatting on the temp file's name makes the next write
	// fail before the rename.
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cr.Write([]byte("next checkpoint")); err == nil {
		t.Fatal("write over a blocked temp file succeeded")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, prev) {
		t.Errorf("failed write changed the checkpoint to %q, want %q", got, prev)
	}
}

// TestCheckpointWriteLeavesNoTemp: a checkpointed run leaves exactly its
// checkpoint file behind, and that file resumes to the uninterrupted
// result.
func TestCheckpointWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck")
	o := testOptions()
	cfg := core.BaseConfig(1, 1*core.MB, 1)
	want, err := run(o, cfg, "", path, 40)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if !reflect.DeepEqual(names, []string{"ck"}) {
		t.Errorf("directory holds %v after the run, want only the checkpoint", names)
	}
	got, err := run(o, cfg, path, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("resuming the last checkpoint diverges from the checkpointed run")
	}
}
