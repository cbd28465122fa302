package experiments

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"oltpsim/internal/core"
)

// progressSweep builds a small sweep of n distinct quick configurations.
func progressSweep(n int) []core.Config {
	var cfgs []core.Config
	shapes := []core.Config{
		core.BaseConfig(1, 1*core.MB, 1),
		core.IntegratedL2Config(1, 1*core.MB, 2, core.OnChipSRAM),
		core.BaseConfig(2, 1*core.MB, 1),
		core.IntegratedL2Config(2, 1*core.MB, 4, core.OnChipSRAM),
		core.FullConfig(2, 1*core.MB, 2),
	}
	for i := 0; i < n; i++ {
		cfgs = append(cfgs, shapes[i%len(shapes)])
	}
	return cfgs
}

// TestRunManyProgress pins the Options.Progress contract across the serial
// and parallel RunMany paths: the callback fires exactly once per
// configuration, the done count is strictly increasing from 1 to total,
// total is constant, calls are never concurrent, and no call arrives after
// RunMany has returned.
func TestRunManyProgress(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		configs int
	}{
		{"serial one config", 1, 1},
		{"serial sweep", 1, 4},
		{"parallel sweep", 4, 5},
		{"more workers than configs", 8, 3},
		{"default workers", 0, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := QuickOptions()
			o.WarmupTxns, o.MeasureTxns = 30, 60
			o.Workers = tc.workers

			var (
				mu       sync.Mutex
				dones    []int
				totals   []int
				inflight int32
				returned atomic.Bool
			)
			o.Progress = func(done, total int) {
				if returned.Load() {
					t.Error("Progress called after RunMany returned")
				}
				if n := atomic.AddInt32(&inflight, 1); n != 1 {
					t.Errorf("Progress entered concurrently (%d in flight)", n)
				}
				mu.Lock()
				dones = append(dones, done)
				totals = append(totals, total)
				mu.Unlock()
				atomic.AddInt32(&inflight, -1)
			}

			res := o.RunMany(progressSweep(tc.configs))
			returned.Store(true)

			if len(res) != tc.configs {
				t.Fatalf("RunMany returned %d results, want %d", len(res), tc.configs)
			}
			if len(dones) != tc.configs {
				t.Fatalf("Progress fired %d times, want %d", len(dones), tc.configs)
			}
			for i, d := range dones {
				if d != i+1 {
					t.Errorf("call %d reported done=%d, want %d (monotonic 1..n)", i, d, i+1)
				}
			}
			for i, tot := range totals {
				if tot != tc.configs {
					t.Errorf("call %d reported total=%d, want %d", i, tot, tc.configs)
				}
			}
		})
	}
}

// TestRunManyProgressNil: a nil Progress is a no-op — same results, no
// panic — on both the serial and parallel paths.
func TestRunManyProgressNil(t *testing.T) {
	cfgs := progressSweep(3)
	o := QuickOptions()
	o.WarmupTxns, o.MeasureTxns = 30, 60

	o.Workers = 1
	serial := o.RunMany(cfgs)
	o.Workers = 4
	parallel := o.RunMany(cfgs)
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("results with nil Progress diverge between serial and parallel paths")
	}
}

// TestRunManyProgressResultsUnchanged: attaching a Progress callback must
// not perturb the simulation — results stay byte-identical to a hook-free
// run, serial and parallel alike.
func TestRunManyProgressResultsUnchanged(t *testing.T) {
	cfgs := progressSweep(4)
	o := QuickOptions()
	o.WarmupTxns, o.MeasureTxns = 30, 60
	o.Results = nil // Progress is not keyed: a cache would answer the hooked runs
	o.Workers = 1
	want := o.RunMany(cfgs)

	for _, workers := range []int{1, 4} {
		o.Workers = workers
		o.Progress = func(done, total int) {}
		if got := o.RunMany(cfgs); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: results with Progress attached differ from hook-free run", workers)
		}
		o.Progress = nil
	}
}
