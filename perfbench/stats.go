package main

import (
	"math"
	"slices"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest latency percentile with at least 10 samples
// beyond it: the (n-10)-th smallest of n samples, which sits at percentile
// 100*(n-10)/n. ok is false for fewer than 11 samples, where no percentile
// qualifies.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := n - 10
	return s[k-1], 100 * float64(k) / float64(n), true
}

// mean returns the average of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail for the calling process.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// roundStat is the host cost of one round of a workload.
type roundStat struct{ wall, cpu float64 }

// timeRound runs f and measures its wall and CPU seconds.
func timeRound(f func() error) (roundStat, error) {
	c0, t0 := cpuSeconds(), time.Now()
	err := f()
	return roundStat{time.Since(t0).Seconds(), cpuSeconds() - c0}, err
}

// rounds runs f a fixed number of times, enough to fill about seconds when
// a round takes nominal seconds (measured on a 2-core host), and at least
// minRounds. The count depends only on the arguments, so a faster program
// does the same work per run as a slower one and the two compare round for
// round.
func rounds(seconds int, nominal float64, minRounds int, f func() error) ([]roundStat, error) {
	n := max(minRounds, int(math.Round(float64(seconds)/nominal)))
	out := make([]roundStat, n)
	for i := range out {
		rs, err := timeRound(f)
		if err != nil {
			return nil, err
		}
		out[i] = rs
	}
	return out, nil
}

// repeat runs f n times and returns each run's wall seconds.
func repeat(n int, f func() error) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		rs, err := timeRound(f)
		if err != nil {
			return nil, err
		}
		out[i] = rs.wall
	}
	return out, nil
}
