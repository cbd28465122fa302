package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"oltpsim/internal/core"
)

// updateCheckpoints rewrites the golden checkpoint digests instead of
// comparing:
//
//	go test ./internal/experiments/ -run TestCheckpointBytesGolden -update-checkpoints
var updateCheckpoints = flag.Bool("update-checkpoints", false, "rewrite the golden checkpoint digests")

// goldenCheckpointConfigs are the machine shapes the checkpoint digests pin:
// the fully integrated 8-node multiprocessor (directory and 3-hop traffic,
// no RAC) and the off-chip direct-mapped uniprocessor.
func goldenCheckpointConfigs() []core.Config {
	return []core.Config{
		core.FullConfig(8, 2*core.MB, 8),
		core.BaseConfig(1, 8*core.MB, 1),
	}
}

// checkpointDigests runs RunCheckpointed in steady state and under the burst
// profile on every golden shape under the quick protocol with a
// 100-transaction quantum, and lists one line per checkpoint container:
// runner, configuration, sequence number, length and SHA-256.
func checkpointDigests(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, cfg := range goldenCheckpointConfigs() {
		for _, runner := range []string{"steady", "burst"} {
			seq := 0
			cr := CheckpointRun{Every: 100, Write: func(data []byte) error {
				fmt.Fprintf(&b, "%s %q %d %d %x\n", runner, cfg.Name, seq, len(data), sha256.Sum256(data))
				seq++
				return nil
			}}
			o := QuickOptions()
			if runner == "burst" {
				o.Scenario = compileProfile(t, burstProfile())
			}
			if _, _, err := o.RunCheckpointed(cfg, cr); err != nil {
				t.Fatalf("%s %s: %v", runner, cfg.Name, err)
			}
		}
	}
	return b.Bytes()
}

// TestCheckpointBytesGolden pins every checkpoint container both schedules
// write, byte for byte (through its digest): the encoder may change how it
// produces the stream, never what the stream is. A deliberate format change
// bumps snapshot.Version and regenerates the file with -update-checkpoints.
func TestCheckpointBytesGolden(t *testing.T) {
	path := filepath.Join("testdata", "checkpoint_digests.txt")
	got := checkpointDigests(t)
	if *updateCheckpoints {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden digests (regenerate with -update-checkpoints): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("checkpoint bytes drifted from the golden digests.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCheckpointAllocationBound: one RunCheckpointed reuses its encoding
// buffer, so once the first checkpoint has grown it, every later
// checkpoint — together with the simulation quantum before it — allocates
// less than a quarter of its container's size.
func TestCheckpointAllocationBound(t *testing.T) {
	var ms runtime.MemStats
	var since uint64
	seq := 0
	cr := CheckpointRun{Every: 100, Write: func(data []byte) error {
		runtime.ReadMemStats(&ms)
		if alloc := ms.TotalAlloc - since; seq > 0 && float64(alloc) >= 0.25*float64(len(data)) {
			t.Errorf("checkpoint %d allocated %d bytes for a %d-byte container (%.2fx, want < 0.25x)",
				seq, alloc, len(data), float64(alloc)/float64(len(data)))
		}
		seq++
		runtime.ReadMemStats(&ms)
		since = ms.TotalAlloc
		return nil
	}}
	if _, _, err := QuickOptions().RunCheckpointed(core.FullConfig(8, 2*core.MB, 8), cr); err != nil {
		t.Fatal(err)
	}
	if seq < 3 {
		t.Fatalf("only %d checkpoints written", seq)
	}
}
