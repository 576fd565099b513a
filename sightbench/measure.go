package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must rank above a percentile before
// the benchmark reports it: a tail figure resting on fewer is noise.
const minBeyond = 10

// ladder is the set of percentiles a tail figure is chosen from.
var ladder = []float64{50, 75, 90, 95, 99, 99.9}

// rankOf is the 1-based nearest-rank position of the q-th percentile
// among n sorted samples.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q/100*float64(n) - 1e-9)) // tolerate q/100 not being exact
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supports reports whether n samples leave at least minBeyond samples
// above the q-th percentile.
func supports(n int, q float64) bool {
	return n > 0 && n-rankOf(n, q) >= minBeyond
}

// highestPercentile returns the highest ladder percentile that n
// samples support, or 0 when they do not even support the median.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, q := range ladder {
		if supports(n, q) {
			best = q
		}
	}
	return best
}

// percentile returns the nearest-rank q-th percentile of vals (which it
// does not modify), or NaN for an empty sample.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[rankOf(len(s), q)-1]
}

// mean returns the arithmetic mean of vals, 0 for an empty sample.
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally counts one phase's operations. Every request, check and set-up
// step the benchmark performs is one attempt; a non-2xx response, a
// transport error or a failed correctness check makes it a failure.
type tally struct {
	attempted int
	failed    int
}

// record counts one attempt and reports whether it succeeded.
func (t *tally) record(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		return false
	}
	return true
}

// add folds o into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// failedShare is failed ÷ attempted (0 when nothing was attempted).
func (t tally) failedShare() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB
// (10^6 bytes), or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0
		}
		return kb * 1024 / 1e6
	}
	return 0
}

// tailOf is a sample's highest percentile with minBeyond samples
// beyond it, or its median when the sample is too small for that.
func tailOf(vals []float64) float64 {
	q := highestPercentile(len(vals))
	if q == 0 {
		q = 50
	}
	return percentile(vals, q)
}

// overhead is the traced minus the untraced median of a sample split
// [untraced, traced], or 0 when either side is empty.
func overhead(split [2][]float64) float64 {
	if len(split[0]) == 0 || len(split[1]) == 0 {
		return 0
	}
	return percentile(split[1], 50) - percentile(split[0], 50)
}
