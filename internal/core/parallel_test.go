package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sightrisk/internal/active"
	"sightrisk/internal/faults"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/obs"
	"sightrisk/internal/synthetic"
)

// diffOwnerRuns is the historical name the determinism tests use for
// the exported NaN-aware comparator (see diff.go).
func diffOwnerRuns(a, b *OwnerRun) string { return DiffRuns(a, b) }

// TestParallelMatchesSerial is the core determinism guarantee: for a
// seeded synthetic study, every Workers value yields the exact
// OwnerRun the legacy serial path (Workers 1) produces — same labels,
// same query traces, same round telemetry, bit-identical floats.
func TestParallelMatchesSerial(t *testing.T) {
	study := studyWorld(t)
	for _, o := range study.Owners {
		cfg := DefaultConfig()
		cfg.Workers = 1
		serial, err := New(cfg).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0), 16} {
			cfg := DefaultConfig()
			cfg.Workers = workers
			par, err := New(cfg).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if d := diffOwnerRuns(serial, par); d != "" {
				t.Fatalf("owner %d workers=%d differs from serial: %s", o.ID, workers, d)
			}
		}
	}
}

// recordingAnnotator wraps an annotator, recording the exact query
// order and failing loudly if two LabelStranger calls ever overlap —
// the annotator thread-safety contract under test.
type recordingAnnotator struct {
	inner  active.Annotator
	inside atomic.Int32
	racy   atomic.Bool
	order  []graph.UserID
}

func (r *recordingAnnotator) LabelStranger(s graph.UserID) label.Label {
	if r.inside.Add(1) != 1 {
		r.racy.Store(true)
	}
	r.order = append(r.order, s) // unsynchronized on purpose: the gate must serialize us
	l := r.inner.LabelStranger(s)
	r.inside.Add(-1)
	return l
}

// TestAnnotatorSerializedDeterministicOrder: with any Workers > 1 the
// owner must see strictly serialized queries in an order that is a
// deterministic function of the study — identical run to run and
// identical across different worker counts.
func TestAnnotatorSerializedDeterministicOrder(t *testing.T) {
	study := studyWorld(t)
	o := study.Owners[0]
	ask := func(workers int) []graph.UserID {
		t.Helper()
		cfg := DefaultConfig()
		cfg.Workers = workers
		rec := &recordingAnnotator{inner: o}
		if _, err := New(cfg).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(rec), o.Confidence); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rec.racy.Load() {
			t.Fatalf("workers=%d: LabelStranger calls overlapped", workers)
		}
		return rec.order
	}

	want := ask(2)
	if len(want) == 0 {
		t.Fatal("no queries recorded")
	}
	for _, workers := range []int{2, 3, 4, 8} {
		for trial := 0; trial < 2; trial++ {
			got := ask(workers)
			if len(got) != len(want) {
				t.Fatalf("workers=%d trial %d: %d queries, want %d", workers, trial, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d trial %d: query %d asked about %d, want %d (order must not depend on scheduling)",
						workers, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestParallelStress is the short-mode-friendly race stressor: several
// owners run concurrently against the shared graph and profile store,
// each with a parallel pool pipeline and a tiny round budget (many
// small sessions → much goroutine churn). Run under -race this
// exercises every shared read path (graph adjacency, profile store,
// pool building, PS contexts).
func TestParallelStress(t *testing.T) {
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = 4
	cfg.Ego.Strangers = 120
	cfg.Ego.Friends = 18
	cfg.Seed = 31
	study, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ecfg := DefaultConfig()
	ecfg.Workers = 8
	ecfg.Learn.MaxRounds = 2 // tiny budgets: more pools in flight per unit work
	var wg sync.WaitGroup
	errs := make([]error, len(study.Owners))
	for i, o := range study.Owners {
		i, o := i, o
		wg.Add(1)
		go func() {
			defer wg.Done()
			run, err := New(ecfg).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
			if err != nil {
				errs[i] = err
				return
			}
			if len(run.Labels()) != len(run.Strangers) {
				errs[i] = fmt.Errorf("owner %d: %d labels for %d strangers", o.ID, len(run.Labels()), len(run.Strangers))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// poisonAnnotator returns an invalid label for one specific stranger.
type poisonAnnotator struct {
	inner  active.Annotator
	victim graph.UserID
}

func (p poisonAnnotator) LabelStranger(s graph.UserID) label.Label {
	if s == p.victim {
		return label.Label(99)
	}
	return p.inner.LabelStranger(s)
}

// TestParallelErrorPropagation: a failure inside one pool's session
// must cancel the run and surface deterministically, naming the
// failing pool, under both the serial and the parallel path.
func TestParallelErrorPropagation(t *testing.T) {
	study := studyWorld(t)
	o := study.Owners[0]
	victim := o.Strangers()[0]
	var msgs []string
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.Learn.Confidence = 100 // exhaustive: the victim is guaranteed to be queried
		_, err := New(cfg).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(poisonAnnotator{inner: o, victim: victim}), math.NaN())
		if err == nil {
			t.Fatalf("workers=%d: invalid label not rejected", workers)
		}
		if !strings.Contains(err.Error(), "invalid label") {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("error differs between serial and parallel:\n  serial:   %s\n  parallel: %s", msgs[0], msgs[1])
	}
}

// TestParallelProgressMonotone: the Progress callback keeps its
// monotone contract under concurrency and ends on (total, total).
func TestParallelProgressMonotone(t *testing.T) {
	study := studyWorld(t)
	o := study.Owners[0]
	cfg := DefaultConfig()
	cfg.Workers = 4
	var lastDone, lastLabels, calls, total int
	cfg.Progress = func(done, tot, labels int) {
		calls++
		total = tot
		if done != lastDone+1 {
			t.Errorf("done jumped %d -> %d", lastDone, done)
		}
		if labels < lastLabels {
			t.Errorf("labels went backwards %d -> %d", lastLabels, labels)
		}
		lastDone, lastLabels = done, labels
	}
	run, err := New(cfg).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 || lastDone != total || len(run.Pools) != total {
		t.Fatalf("progress ended at %d/%d after %d calls, %d pools", lastDone, total, calls, len(run.Pools))
	}
	if lastLabels != run.QueriedCount() {
		t.Fatalf("final labels %d, run queried %d", lastLabels, run.QueriedCount())
	}
}

// eventLog collects a run's events and OnPool calls into one ordered
// stream, so a test can check when pools are published relative to
// other pools' sessions.
type eventLog struct {
	mu     sync.Mutex
	events []obs.Event
	onPool []int // index into events at which each OnPool fired, by pool
}

func (l *eventLog) Observe(ev obs.Event) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *eventLog) poolDone(run *OwnerRun, pr PoolRun, index, total int) {
	l.mu.Lock()
	l.onPool = append(l.onPool, len(l.events))
	l.mu.Unlock()
}

// TestWorkersOneContract pins what sightd and the fleet rely on at
// Workers = 1: owner questions are pool-major (each pool's questions
// contiguous, pools in order); once a run is interrupted every later
// pool is an empty StopInterrupted stub whose only events are
// pool.start and pool.end "interrupted"; and OnPool streams, firing
// for pool 0 before the last pool's session starts.
func TestWorkersOneContract(t *testing.T) {
	study := studyWorld(t)
	o := study.Owners[0]

	cfg := DefaultConfig()
	cfg.Workers = 1
	log := &eventLog{}
	cfg.Observer = log
	cfg.OnPool = log.poolDone
	rec := &askRecorder{inner: active.Infallible(o)}
	run, err := New(cfg).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, rec, o.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	poolOf := map[graph.UserID]int{}
	asking := 0
	for i, p := range run.Pools {
		for _, m := range p.Pool.Members {
			poolOf[m] = i
		}
		if p.Result.QueriedCount() > 0 {
			asking++
		}
	}
	if asking < 2 {
		t.Fatalf("study too small: %d pools ask questions", asking)
	}
	for i := 1; i < len(rec.asked); i++ {
		if poolOf[rec.asked[i]] < poolOf[rec.asked[i-1]] {
			t.Fatalf("question %d (pool %d) follows a question of pool %d: order is not pool-major",
				i, poolOf[rec.asked[i]], poolOf[rec.asked[i-1]])
		}
	}
	last := run.Pools[len(run.Pools)-1].Pool.ID()
	lastStart := -1
	for i, ev := range log.events {
		if ev.Kind == obs.KindPoolStart && ev.Pool == last {
			lastStart = i
		}
	}
	if len(log.onPool) != len(run.Pools) || lastStart < 0 {
		t.Fatalf("%d OnPool calls for %d pools; last pool start at %d", len(log.onPool), len(run.Pools), lastStart)
	}
	if log.onPool[0] > lastStart {
		t.Fatalf("OnPool(0) fired at event %d, after the last pool started at %d: not streaming", log.onPool[0], lastStart)
	}

	// Abandon inside the first pool that asks questions.
	first := 0
	for run.Pools[first].Result.QueriedCount() == 0 {
		first++
	}
	cut := 0
	for _, p := range run.Pools[:first] {
		cut += p.Result.QueriedCount()
	}
	cut++
	inj, err := faults.Wrap(active.Infallible(o), faults.Config{AbandonAfter: cut})
	if err != nil {
		t.Fatal(err)
	}
	alog := &eventLog{}
	acfg := DefaultConfig()
	acfg.Workers = 1
	acfg.Observer = alog
	abandoned, err := New(acfg).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, inj, o.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	if !abandoned.Partial || abandoned.Pools[first].Status != PoolPartial {
		t.Fatalf("run not interrupted in pool %d", first)
	}
	if first+1 >= len(abandoned.Pools) {
		t.Fatalf("no pool after the interrupted pool %d", first)
	}
	byPool := map[string][]obs.Event{}
	for _, ev := range alog.events {
		if ev.Pool != "" {
			byPool[ev.Pool] = append(byPool[ev.Pool], ev)
		}
	}
	for i := first + 1; i < len(abandoned.Pools); i++ {
		p := abandoned.Pools[i]
		if p.Status != PoolPartial || p.Result.Reason != active.StopInterrupted || len(p.Result.Rounds) != 0 || p.Result.QueriedCount() != 0 {
			t.Fatalf("pool %d after the interruption is not an empty StopInterrupted stub: status %s reason %s, %d rounds",
				i, p.Status, p.Result.Reason, len(p.Result.Rounds))
		}
		evs := byPool[p.Pool.ID()]
		if len(evs) != 2 || evs[0].Kind != obs.KindPoolStart || evs[1].Kind != obs.KindPoolEnd || evs[1].Note != "interrupted" {
			t.Fatalf("pool %d stub events = %v, want pool.start then pool.end \"interrupted\"", i, evs)
		}
	}
}
