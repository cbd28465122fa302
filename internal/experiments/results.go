package experiments

import (
	"fmt"
	"sync"

	"oltpsim/internal/core"
	"oltpsim/internal/stats"
)

// ResultCache answers repeated sweep points from one simulation. The paper
// normalizes every figure to the same Base bar and repeats other bars
// across figures under new names; a sweep sharing one cache simulates each
// distinct point once and hands every later request a copy of the result
// under its own name. A simulation is a pure function of its key, so a
// cached answer is the result a fresh run would produce. Safe for
// concurrent use by RunMany workers.
type ResultCache struct {
	mu sync.Mutex
	m  map[string]*resultEntry
}

type resultEntry struct {
	once sync.Once
	res  stats.RunResult
}

// NewResultCache returns an empty cache.
func NewResultCache() *ResultCache {
	return &ResultCache{m: make(map[string]*resultEntry)}
}

// size returns the number of distinct points the cache holds.
func (c *ResultCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// fetch returns the result for key, invoking run at most once per key.
// Concurrent callers for the same key block until the first finishes.
// RunResult is a plain value, so the returned copy shares nothing with the
// cached one.
func (c *ResultCache) fetch(key string, run func() stats.RunResult) stats.RunResult {
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		e = &resultEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.res = run() })
	return e.res
}

// resultKey identifies a steady run: the machine shape (configuration
// minus its display name) and every option that shapes the result or the
// execution path that produces it. Progress, Zeta and Results never change
// a result; scenario runs bypass the cache.
func (o Options) resultKey(cfg core.Config) string {
	return fmt.Sprintf("%s seed=%d warmup=%d quick=%t measure=%d workers=%d noff=%t",
		cfg.Fingerprint(), o.Seed, o.WarmupTxns, o.Quick, o.MeasureTxns, o.Workers, o.NoFastForward)
}
