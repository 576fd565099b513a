package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	sight "sightrisk"
	"sightrisk/client"
	"sightrisk/internal/active"
	"sightrisk/internal/classify"
	"sightrisk/internal/cluster"
	"sightrisk/internal/core"
	"sightrisk/internal/dataset"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
)

// The traced run's engine replay: the benchmark re-runs the workload's
// engine, delta and ldp calls on its own copy of the dataset and times
// each call into a layer's public functions from here, outside the
// program. Reports the replay produces are checked against the served
// ones, so the replay measures the same program the server ran.

// timedClassifier wraps the engine's harmonic classifier, timing every
// solve and counting its Jacobi iterations through the Iterations hook.
// The engine's serial path (Workers = 1, as the server runs it) calls
// it from one goroutine at a time.
type timedClassifier struct {
	h     *classify.Harmonic
	iters int

	solves   []float64 // ms per solve
	sumIters int
	capHits  int
	cells    float64 // Σ iterations × pool size²
}

func newTimedClassifier() *timedClassifier {
	c := &timedClassifier{h: classify.NewHarmonic()}
	c.h.Iterations = func(iters int) { c.iters = iters }
	return c
}

// Name implements classify.Classifier.
func (c *timedClassifier) Name() string { return c.h.Name() }

// Predict implements classify.Classifier.
func (c *timedClassifier) Predict(w [][]float64, l map[int]label.Label) ([]classify.Prediction, error) {
	t0 := time.Now()
	c.iters = 0
	p, err := c.h.Predict(w, l)
	c.observe(len(w), time.Since(t0))
	return p, err
}

// PredictFrom is the warm-started solve the active session prefers.
func (c *timedClassifier) PredictFrom(w [][]float64, l map[int]label.Label, init [][3]float64) ([]classify.Prediction, error) {
	t0 := time.Now()
	c.iters = 0
	p, err := c.h.PredictFrom(w, l, init)
	c.observe(len(w), time.Since(t0))
	return p, err
}

func (c *timedClassifier) observe(n int, d time.Duration) {
	c.solves = append(c.solves, ms(d))
	c.sumIters += c.iters
	if c.iters >= c.h.MaxIter {
		c.capHits++
	}
	c.cells += float64(c.iters) * float64(n) * float64(n)
}

// timedAnnotator times the owner's answers.
type timedAnnotator struct {
	inner active.FallibleAnnotator
	total time.Duration
}

// LabelStranger implements active.FallibleAnnotator.
func (a *timedAnnotator) LabelStranger(ctx context.Context, s graph.UserID) (label.Label, error) {
	t0 := time.Now()
	l, err := a.inner.LabelStranger(ctx, s)
	a.total += time.Since(t0)
	return l, err
}

// engineConfig is the per-job engine configuration the server runs:
// the default options on the exact serial path.
func engineConfig() (core.Config, error) {
	cfg, err := sight.DefaultOptions().EngineConfig()
	if err != nil {
		return cfg, err
	}
	cfg.Workers = 1
	return cfg, nil
}

// weightExponent resolves the engine's PS weight exponent default.
func weightExponent(cfg core.Config) float64 {
	if cfg.WeightExponent == 0 {
		return 4
	}
	return cfg.WeightExponent
}

// reportBytes renders an engine run as the server serves it.
func reportBytes(run *core.OwnerRun) ([]byte, error) {
	return json.Marshal(client.FromReport(sight.AssembleReport(run)))
}

// classifyLayers fills the classify metrics from a timing classifier,
// normalized per owner run.
func classifyLayers(res *result, c *timedClassifier, runs int) {
	n := len(c.solves)
	if runs == 0 || n == 0 {
		return
	}
	res.layers["classify.solve_ms"] = mean(c.solves)
	res.layers["classify.solve_tail_ms"] = tailOf(c.solves)
	res.layers["classify.solves"] = float64(n) / float64(runs)
	res.layers["classify.iters_per_solve"] = float64(c.sumIters) / float64(n)
	res.layers["classify.cap_hits"] = float64(c.capHits) / float64(runs)
	res.layers["classify.sweep_cells"] = c.cells / float64(runs)
}

// replayOwners replays the sampled owners' runs and fills the serving
// and engine layers of owner_interactive. Times and counts are per
// replayed owner run unless the metric says otherwise.
func replayOwners(ctx context.Context, res *result, check *tally, s *ownerSetup, sample []dataset.OwnerRecord,
	servedBy map[graph.UserID][]byte, tr *tracer, tracedJobs map[string]bool, tracedEstimates int) {
	serverLayers(res, tr)
	puts := tr.putsFor(tracedJobs)
	res.layers["server.store_put_ms"] = mean(puts)
	if tracedEstimates > 0 {
		res.layers["server.store_puts"] = float64(len(puts)) / float64(tracedEstimates)
	}
	cacheLayer(res, s.fx)

	cfg, err := engineConfig()
	if !check.record(err) {
		res.fail("replay: %v", err)
		return
	}
	snap := s.ds.Graph.Snapshot()
	store := s.ds.ProfileStore()
	exp := weightExponent(cfg)
	clf := newTimedClassifier()
	var strangersT, poolsT, weightsT, runT, annT time.Duration
	pools, largest := 0, 0
	weightBytes := 0.0
	queries, rounds := 0, 0
	for _, rec := range sample {
		t0 := time.Now()
		strangers := snap.Strangers(rec.ID)
		strangersT += time.Since(t0)
		t0 = time.Now()
		ps, _, err := cluster.BuildPoolsSnapshot(snap, store, rec.ID, strangers, cfg.Pool)
		poolsT += time.Since(t0)
		if !check.record(err) {
			res.fail("replay owner %d: %v", rec.ID, err)
			continue
		}
		for _, p := range ps {
			t0 = time.Now()
			_, err := cluster.PoolWeights(store, p, cfg.PSAttributes, exp)
			weightsT += time.Since(t0)
			if err != nil {
				res.fail("replay owner %d weights: %v", rec.ID, err)
			}
			n := len(p.Members)
			weightBytes += 8 * float64(n) * float64(n)
			if n > largest {
				largest = n
			}
		}
		pools += len(ps)

		ann := &timedAnnotator{inner: active.Infallible(storedAnnotator(rec))}
		rc := cfg
		rc.Snapshot = snap
		rc.Weights = cluster.NewWeightCache()
		rc.Learn.Classifier = clf
		t0 = time.Now()
		run, err := core.New(rc).RunOwner(ctx, s.ds.Graph, store, rec.ID, ann, math.NaN())
		runT += time.Since(t0)
		annT += ann.total
		if err == nil {
			var got []byte
			if got, err = reportBytes(run); err == nil {
				err = sameBytes(fmt.Sprintf("owner %d replay vs served", rec.ID), got, servedBy[rec.ID])
			}
		}
		if !check.record(err) {
			res.fail("replay: %v", err)
			continue
		}
		queries += run.QueriedCount()
		for _, pr := range run.Pools {
			rounds += len(pr.Result.Rounds)
		}
	}
	n := float64(len(sample))
	if n == 0 {
		return
	}
	per := func(d time.Duration) float64 { return ms(d) / n }
	res.layers["core.run_ms"] = per(runT)
	res.layers["core.self_ms"] = per(runT) - sumMS(clf.solves)/n - per(annT) - per(strangersT) - per(poolsT) - per(weightsT)
	res.layers["graph.strangers_ms"] = per(strangersT)
	res.layers["cluster.pools_ms"] = per(poolsT)
	res.layers["cluster.weights_ms"] = per(weightsT)
	res.layers["cluster.pools"] = float64(pools) / n
	res.layers["cluster.largest_pool"] = float64(largest)
	res.layers["cluster.weight_mb"] = weightBytes / 1e6 / n
	res.layers["active.queries"] = float64(queries) / n
	res.layers["active.rounds"] = float64(rounds) / n
	res.layers["active.annotator_ms"] = per(annT)
	classifyLayers(res, clf, len(sample))
}

// serverLayers fills the serving-layer metrics from the traced
// requests: mean handler time per route and the client-observed time
// the handler does not account for.
func serverLayers(res *result, tr *tracer) {
	res.layers["server.answers_ms"] = tr.handlerMean("answers")
	res.layers["server.updates_ms"] = tr.handlerMean("updates")
	res.layers["server.stats_ms"] = tr.handlerMean("stats")
	res.layers["server.transport_ms"] = tr.transportMean()
}

// cacheLayer is the weight cache's hit rate over the whole run, read
// from the server's metrics.
func cacheLayer(res *result, fx *fixture) {
	m := fx.metrics.Snapshot()
	if total := m.CacheHits + m.CacheMisses; total > 0 {
		res.layers["cluster.cache_hit_rate"] = float64(m.CacheHits) / float64(total)
	}
}

// sumMS adds a sample of milliseconds.
func sumMS(vals []float64) float64 {
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s
}
