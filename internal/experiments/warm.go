package experiments

import (
	"bytes"
	"fmt"
	"sync"

	"oltpsim/internal/core"
	"oltpsim/internal/snapshot"
	"oltpsim/internal/stats"
)

// WarmCache shares end-of-warmup machine snapshots between runs. Sweep
// points with an identical machine shape and workload seed pass through the
// same warm state, so the first run to arrive pays for the warmup and every
// later run forks from its snapshot. Restoring a snapshot is bit-identical
// to re-running the warmup (the snapshot-equivalence suite enforces this),
// so results never depend on whether the cache was hit. Safe for concurrent
// use by RunMany workers.
type WarmCache struct {
	mu sync.Mutex
	m  map[string]*warmEntry
}

type warmEntry struct {
	once sync.Once
	data []byte
	ok   bool
}

// NewWarmCache returns an empty cache.
func NewWarmCache() *WarmCache {
	return &WarmCache{m: make(map[string]*warmEntry)}
}

func (c *WarmCache) entry(key string) *warmEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		e = &warmEntry{}
		c.m[key] = e
	}
	return e
}

// fetch returns the snapshot for key, invoking build at most once per key.
// Concurrent callers for the same key block until the first finishes.
func (c *WarmCache) fetch(key string, build func() ([]byte, bool)) ([]byte, bool) {
	e := c.entry(key)
	e.once.Do(func() {
		data, ok := build()
		c.mu.Lock()
		e.data, e.ok = data, ok
		c.mu.Unlock()
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	return e.data, e.ok
}

// Seed installs a previously exported snapshot (no-op if the key is already
// populated), letting a CLI reload warm state persisted by an earlier
// process.
func (c *WarmCache) Seed(key string, data []byte) {
	e := c.entry(key)
	e.once.Do(func() {
		c.mu.Lock()
		e.data, e.ok = data, true
		c.mu.Unlock()
	})
}

// Entries returns a copy of every populated snapshot, keyed by warm key, for
// persistence.
func (c *WarmCache) Entries() map[string][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string][]byte, len(c.m))
	for k, e := range c.m {
		if e.ok {
			out[k] = e.data
		}
	}
	return out
}

// warmKey identifies the machine state at the end of warmup: the machine
// shape (configuration minus its display name) and everything that shapes
// the workload's trajectory to the end of warmup.
func (o Options) warmKey(cfg core.Config) string {
	return fmt.Sprintf("%s seed=%d warmup=%d quick=%t", cfg.Fingerprint(), o.Seed, o.WarmupTxns, o.Quick)
}

// runWarm executes the protocol against sys, reusing (or producing) the
// cached warm snapshot for cfg's shape. Any snapshot failure falls back to
// an ordinary cold warmup, so the result is always produced.
func (o Options) runWarm(cfg core.Config, sys *core.System) stats.RunResult {
	warmedHere := false
	snap, ok := o.WarmSnapshot.fetch(o.warmKey(cfg), func() ([]byte, bool) {
		sys.RunUntil(o.WarmupTxns)
		warmedHere = true
		w := snapshot.NewWriter()
		if err := sys.SaveTo(w); err != nil {
			return nil, false
		}
		return w.Bytes(), true
	})
	if !warmedHere {
		if !ok {
			sys.RunUntil(o.WarmupTxns)
		} else if err := sys.Load(bytes.NewReader(snap)); err != nil {
			// A failed restore leaves unspecified state: rebuild and warm.
			sys = o.build(cfg)
			sys.RunUntil(o.WarmupTxns)
		}
	}
	return sys.RunMeasured(o.MeasureTxns)
}
