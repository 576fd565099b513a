package core

import (
	"context"
	"sync"

	"sightrisk/internal/active"
	"sightrisk/internal/classify"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/obs"
	"sightrisk/internal/parallel"
)

// runPoolsFanOut is the concurrent pool loop (Workers > 1 and more
// than one pool). It produces byte-identical PoolRuns in pool order,
// for any deterministic annotator. Every pool runs runPool in its own
// goroutine — the query Gate's rotation must be able to wait on any
// pool, so pools cannot share a bounded pool of goroutines — while the
// CPU-heavy work, weight builds and classifier solves, shares
// `workers` Limiter permits. Each pool's weight matrix is
// self-contained (pool-local value frequencies, own backing array), so
// the builds need no other coordination. All annotator queries are
// routed through the Gate, which serializes them in a rotation over
// pool indices that depends only on each session's own deterministic
// behavior. The owner is therefore asked one question at a time, in
// the same order for every Workers > 1 value and every run.
// (runPoolsInline keeps the pool-major order: all of pool 0's
// questions, then pool 1's, and so on.)
//
// Failures cancel cooperatively: the first error flips the Group's
// flag, in-flight sessions abort at their next classifier call, and
// Wait reports the lowest-pool-index root cause so errors are as
// deterministic as results.
//
// Interruptions (abandonment, ctx cancellation) are not failures:
// the interrupted session stores its partial result, the shared
// abandonment latch fails every later query fast, and the run's
// Partial/Cause fields record the lowest-pool-index interrupt so the
// degraded outcome is as deterministic as a successful one. When ctx
// is canceled the gate is aborted, so sessions blocked waiting their
// turn unblock promptly instead of waiting out other pools' compute.
func (e *Engine) runPoolsFanOut(ctx context.Context, run *OwnerRun, op *ownerPools, workers int) error {
	pools := op.pools
	sink := e.cfg.Observer
	op.limiter = parallel.NewLimiter(workers)

	// Each pool's events go into a private buffer, flushed to the real
	// sink in pool order after every session finished — so the observed
	// stream is identical to the inline loop's, for any Workers value.
	var bufs []*obs.Buffer
	if sink != nil {
		bufs = make([]*obs.Buffer, len(pools))
		for i := range bufs {
			bufs[i] = &obs.Buffer{}
		}
	}

	gate := parallel.NewGate(len(pools))
	sessions := parallel.NewGroup(len(pools)) // one goroutine per pool; CPU bounded by the limiter
	runs := make([]PoolRun, len(pools))
	causes := make([]error, len(pools))

	// Bridge ctx cancellation to the gate so waiters wake immediately.
	watcherDone := make(chan struct{})
	defer close(watcherDone)
	go func() {
		select {
		case <-ctx.Done():
			gate.Abort()
		case <-watcherDone:
		}
	}()

	// Progress reports completions as they happen; done counts and
	// label totals stay monotone, but the completion order (unlike the
	// results) is scheduler-dependent.
	var progressMu sync.Mutex
	poolsDone, labelsSoFar := 0, 0
	progress := func(pr PoolRun) {
		if e.cfg.Progress == nil {
			return
		}
		progressMu.Lock()
		poolsDone++
		if !pr.Reused {
			labelsSoFar += pr.Result.QueriedCount()
		}
		e.cfg.Progress(poolsDone, len(pools), labelsSoFar)
		progressMu.Unlock()
	}

	for i := range pools {
		i := i
		sessions.Go(i, func() error {
			// A pool that finishes — reused, no questions, or done —
			// drops out of the query rotation via Done.
			defer gate.Done(i)
			var poolSink obs.Observer
			if bufs != nil {
				poolSink = bufs[i]
			}
			ann := gatedAnnotator{gate: gate, slot: i, inner: op.chain(pools[i].ID())}
			clf := &limitedClassifier{
				inner:    e.poolClassifier(op.learn.Classifier),
				limiter:  op.limiter,
				canceled: sessions.Canceled,
			}
			pr, cause, err := e.runPool(ctx, op, i, poolSink, ann, clf)
			if err != nil {
				return err
			}
			runs[i], causes[i] = pr, cause
			progress(pr)
			return nil
		})
	}
	if err := sessions.Wait(); err != nil {
		return err
	}
	for _, b := range bufs {
		b.FlushTo(sink)
	}
	run.Pools = runs
	for _, cause := range causes {
		if cause != nil {
			run.Partial = true
			run.Cause = cause
			break
		}
	}
	// OnPool fires at merge time, in pool order — the fan-out cannot
	// stream mid-run without leaking scheduler-dependent order.
	for i := range runs {
		e.emitPool(run, runs[i], i, len(runs))
	}
	return nil
}

// poolClassifier mirrors active.NewSession's default: a nil configured
// classifier means each pool gets its own Harmonic instance (so the
// warm-start scratch state is never shared), wired to the engine's
// solver metrics. A non-nil classifier is shared across concurrent
// sessions and must be stateless across Predict calls — true of every
// classifier in this module (Harmonic, Majority, KNN keep no per-call
// state).
func (e *Engine) poolClassifier(configured classify.Classifier) classify.Classifier {
	if configured != nil {
		return configured
	}
	return e.newClassifier()
}

// gatedAnnotator routes one pool's owner queries through the rotation
// gate: LabelStranger holds the pool's turn for exactly one question.
// This is what makes the annotator contract single-threaded —
// implementations are never called concurrently, with or without
// Workers — and what keeps the question order deterministic. The gate
// sits above the replay cache on purpose: a query answered from a
// resumed checkpoint still takes its turn in the rotation, so a
// resumed run replays the exact query order of the original.
type gatedAnnotator struct {
	gate  *parallel.Gate
	slot  int
	inner active.FallibleAnnotator
}

func (a gatedAnnotator) LabelStranger(ctx context.Context, s graph.UserID) (label.Label, error) {
	if !a.gate.Acquire(a.slot) {
		// Aborted: the run's context is gone.
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return 0, context.Canceled
	}
	defer a.gate.Release(a.slot)
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return a.inner.LabelStranger(ctx, s)
}

// warmStarter mirrors the optional warm-start fast path the active
// package probes for (active.warmStartClassifier).
type warmStarter interface {
	PredictFrom(weights [][]float64, labeled map[int]label.Label, init [][3]float64) ([]classify.Prediction, error)
}

// limitedClassifier wraps a session's classifier so each solve (the
// pipeline's CPU hot spot) holds one Limiter permit, and so in-flight
// sessions abort promptly after another pool fails. It forwards the
// warm-start path exactly as the session would have used it on the
// bare classifier, keeping fan-out predictions bit-identical to
// inline ones.
type limitedClassifier struct {
	inner    classify.Classifier
	limiter  *parallel.Limiter
	canceled func() bool
}

func (c *limitedClassifier) Name() string { return c.inner.Name() }

func (c *limitedClassifier) Predict(weights [][]float64, labeled map[int]label.Label) ([]classify.Prediction, error) {
	return c.PredictFrom(weights, labeled, nil)
}

func (c *limitedClassifier) PredictFrom(weights [][]float64, labeled map[int]label.Label, init [][3]float64) ([]classify.Prediction, error) {
	if c.canceled() {
		return nil, parallel.ErrCanceled
	}
	var preds []classify.Prediction
	var err error
	c.limiter.Do(func() {
		if ws, ok := c.inner.(warmStarter); ok && init != nil {
			preds, err = ws.PredictFrom(weights, labeled, init)
			return
		}
		preds, err = c.inner.Predict(weights, labeled)
	})
	return preds, err
}

var _ classify.Classifier = (*limitedClassifier)(nil)
var _ warmStarter = (*limitedClassifier)(nil)
