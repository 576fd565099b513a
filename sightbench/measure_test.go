package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestHighestPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.want > 0 && c.n-rankOf(c.n, c.want) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d beyond, want >= %d", c.n, c.want, c.n-rankOf(c.n, c.want), minBeyond)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(100 - i) // 100 .. 1, unsorted input
	}
	for _, c := range []struct{ q, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(vals, c.q); got != c.want {
			t.Errorf("p%g = %g, want %g", c.q, got, c.want)
		}
	}
	if vals[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample is not NaN")
	}
	if got := tailOf([]float64{3, 1, 2}); got != 2 {
		t.Errorf("tailOf a 3-sample = %g, want its median 2", got)
	}
}

func TestFailedShareCountsEveryFailureAgainstAttempts(t *testing.T) {
	var run, check tally
	boom := errors.New("boom")
	for i := 0; i < 8; i++ {
		var err error
		if i%4 == 0 {
			err = boom
		}
		if ok := run.record(err); ok != (err == nil) {
			t.Fatalf("record(%v) = %v", err, ok)
		}
	}
	check.record(nil)
	check.record(boom) // a failed correctness check counts like a failed request
	if run.attempted != 8 || run.failed != 2 {
		t.Fatalf("run tally = %+v, want 8 attempted, 2 failed", run)
	}
	var total tally
	total.add(run)
	total.add(check)
	if got := total.failedShare(); got != 0.3 {
		t.Errorf("failed share = %g, want 3/10", got)
	}
	if got := (tally{}).failedShare(); got != 0 {
		t.Errorf("empty tally share = %g, want 0", got)
	}
	r := &result{}
	r.addPhase("run", run)
	r.addPhase("check", check)
	if r.correct() {
		t.Error("a result with failed operations reads as correct")
	}
	if got := r.total(); got != total {
		t.Errorf("result total = %+v, want %+v", got, total)
	}
}

func TestScheduleIsSeededSortedAndReplaysEarlierReleases(t *testing.T) {
	a := schedule(rand.New(rand.NewSource(7)), 400, 20*time.Second)
	b := schedule(rand.New(rand.NewSource(7)), 400, 20*time.Second)
	if len(a) != 400 {
		t.Fatalf("got %d arrivals, want 400", len(a))
	}
	seen := map[string]bool{}
	replays := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs across equal seeds", i)
		}
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if a[i].due < 0 || a[i].due >= 20*time.Second {
			t.Fatalf("arrival %d due at %v, outside the window", i, a[i].due)
		}
		key := fmt.Sprintf("%s/%d", a[i].tenant, a[i].epoch)
		if a[i].replay {
			replays++
			if !seen[key] {
				t.Fatalf("arrival %d replays %s before its first release", i, key)
			}
			continue
		}
		if seen[key] {
			t.Fatalf("fresh arrival %d reuses %s", i, key)
		}
		seen[key] = true
	}
	if share := float64(replays) / 400; share < 0.15 || share > 0.35 {
		t.Errorf("replay share %g, want about 1/%d", share, tenantReplayEvery)
	}
}
