// Package core orchestrates the full risk-estimation pipeline of the
// paper for one owner: stranger enumeration → network similarity
// groups → profile clustering → per-pool active-learning sessions →
// aggregated risk report. It is the internal engine behind the public
// sight package and the experiments harness.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"sightrisk/internal/active"
	"sightrisk/internal/classify"
	"sightrisk/internal/cluster"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/obs"
	"sightrisk/internal/parallel"
	"sightrisk/internal/profile"
	"sightrisk/internal/stats"
)

// Config parameterizes an engine run.
type Config struct {
	// Pool controls NSG/Squeezer pool construction (paper: α = 10,
	// β = 0.4, NPP strategy).
	Pool cluster.PoolConfig
	// Learn controls the per-pool active-learning sessions. The
	// Confidence field may be overridden per owner via RunOwner's
	// confidence argument (pass NaN to keep Learn.Confidence).
	Learn active.Config
	// PSAttributes are the attributes the classifier's edge weights
	// are computed over; empty means the paper's clustering
	// attributes.
	PSAttributes []profile.Attribute
	// Progress, when non-nil, is invoked after each pool's session
	// completes with the number of pools finished, the total pool
	// count, and the owner labels collected so far. Useful for
	// interactive frontends (sessions can take a while on big
	// neighborhoods).
	Progress func(poolsDone, poolsTotal, labelsSoFar int)
	// WeightExponent sharpens classifier edge weights: w = PS^exp.
	// Zhu et al. use a rapidly decaying RBF kernel over Euclidean
	// distance; raising the categorical PS to a power plays the same
	// role, letting same-attribute neighbors dominate label
	// propagation. 0 means the default of 4; 1 uses raw PS.
	WeightExponent float64
	// Seed drives the sampling RNGs (one derived stream per pool).
	Seed int64
	// Workers bounds how many per-pool computations (weight-matrix
	// builds and classifier solves) run concurrently. 0 means
	// runtime.GOMAXPROCS(0). 1 runs the pools one after another on the
	// caller's goroutine, asking the owner pool by pool and streaming
	// OnPool and Progress; sightd and the fleet scheduler run this way.
	// Results are identical for every value — see RunOwner.
	Workers int
	// Snapshot, when non-nil, is a frozen CSR view of the run's graph.
	// Stranger enumeration, the network measure and NSG construction
	// all run on a snapshot. The caller must take it from the same graph
	// passed to RunOwner (the fleet scheduler shares one snapshot across
	// a tenant's runs). When nil, RunOwner freezes its own from the
	// graph — one O(V+E log d) pass that the per-stranger similarity
	// computations repay.
	//
	// With a Snapshot set, RunOwner also accepts a nil graph: every
	// structural query is answered by the snapshot. This is how
	// mmap-backed snapshot files (graph/snapfile) run — no mutable
	// graph is ever materialized.
	Snapshot *graph.Snapshot
	// Weights, when non-nil, is a shared content-keyed cache for the
	// per-pool PS weight matrices. Pools whose membership, attribute
	// values, attrs and exponent have been seen before — by any owner,
	// tenant, or prior run sharing the cache — reuse the cached matrix
	// instead of rebuilding the O(n²) computation. Matrices are read
	// only; sharing is safe because the engine never mutates them.
	Weights *cluster.WeightCache
	// Retry controls how transient annotator failures are retried and
	// which deadlines bound queries and the whole session. The zero
	// value performs a single attempt with no deadlines.
	Retry active.RetryPolicy
	// Checkpoint, when non-nil, receives a deep-copied snapshot of the
	// run's checkpoint after every completed round (and once more when
	// the run ends). A returned error aborts the run — losing
	// durability silently would defeat the point.
	Checkpoint func(*Checkpoint) error
	// Resume, when non-nil, seeds the run with a prior checkpoint's
	// answers: questions already answered are replayed from the cache
	// and never re-asked, and the finished run is byte-identical to an
	// uninterrupted one. The checkpoint must match the run's owner and
	// seed.
	Resume *Checkpoint
	// AbandonGrace extends each in-flight owner query this long past
	// cancellation of the run's context, so the answer currently being
	// produced can still complete and be checkpointed. New queries are
	// never started after cancellation regardless. 0 means in-flight
	// queries are canceled immediately with the run.
	AbandonGrace time.Duration
	// Observer, when non-nil, receives the structured event stream of
	// the run: run/pool boundaries, every owner query, every learning
	// round. The stream is identical for every Workers value on complete
	// runs — with Workers > 1 per-pool events are buffered and flushed
	// in pool order. Nil costs nothing (no session events are built).
	Observer obs.Observer
	// Trace tunes what the Observer stream carries (e.g. order-sensitive
	// stage digests for the determinism auditor).
	Trace obs.TraceConfig
	// Metrics, when non-nil, accumulates lock-free per-stage counters
	// across runs (pool builds, rounds, queries, solver iterations,
	// cache hits, retries). Shared safely by concurrent engines.
	Metrics *obs.Metrics
	// Tenant stamps every emitted event with a tenant identity; the
	// fleet scheduler sets it so multi-tenant streams stay attributable.
	Tenant string
	// Reuse, when non-nil, is a prior complete OwnerRun for the same
	// owner, seed and options whose per-pool results may be spliced into
	// this run (incremental re-estimation). The pipeline still rebuilds
	// strangers, NSG and pools from the current graph; a rebuilt pool is
	// then served from the prior run — session skipped entirely — iff it
	// sits at the same index with the same id and member list and its
	// weight-content key (cluster.PoolKey) is unchanged. Those conditions
	// pin every input of the session (members, weight matrix, the
	// index-derived RNG stream), so with a deterministic annotator and
	// unchanged Learn options the spliced result is byte-identical to a
	// full recompute. A Reuse run that does not match (different owner,
	// seed, or a partial run) is ignored — the engine silently falls back
	// to computing every pool.
	Reuse *OwnerRun
	// OnPool, when non-nil, is invoked once per pool, in pool order, as
	// results become final: at Workers = 1 right after each pool
	// finishes (streaming), with Workers > 1 at merge time after all
	// sessions complete. Partial pools are reported before fallback
	// labels are synthesized; the assembled report remains authoritative.
	// The callback must not mutate the run.
	OnPool func(run *OwnerRun, pr PoolRun, index, total int)
}

// DefaultConfig returns the paper's experimental configuration.
func DefaultConfig() Config {
	return Config{
		Pool:  cluster.DefaultPoolConfig(),
		Learn: active.DefaultConfig(),
		Seed:  1,
	}
}

// Validate checks the engine configuration and returns a descriptive
// error for out-of-range fields instead of letting the run silently
// misbehave.
func (c Config) Validate() error {
	if err := c.Pool.Validate(); err != nil {
		return err
	}
	if err := c.Learn.Validate(); err != nil {
		return err
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: Workers must be >= 0, got %d", c.Workers)
	}
	if c.WeightExponent < 0 {
		return fmt.Errorf("core: WeightExponent must be >= 0, got %g", c.WeightExponent)
	}
	if c.AbandonGrace < 0 {
		return fmt.Errorf("core: AbandonGrace must be >= 0, got %v", c.AbandonGrace)
	}
	return c.Retry.Validate()
}

// PoolRun is the outcome of one pool's learning session.
type PoolRun struct {
	Pool   cluster.Pool
	Result *active.Result
	// Status distinguishes pools whose session ran to its stopping
	// rule (PoolComplete) from pools interrupted by abandonment or
	// cancellation (PoolPartial).
	Status PoolStatus
	// Fallback marks the members of a partial pool whose final label
	// was synthesized (last predictions or majority/prior) rather than
	// learned by a finished session. Nil for complete pools.
	Fallback map[graph.UserID]bool
	// WeightKey is the content key of the pool's weight artifacts
	// (cluster.PoolKey) — the pool-level invalidation handle for
	// incremental re-estimation. Zero on interrupted pools that never
	// reached their weight build.
	WeightKey cluster.Key
	// Reused reports that this pool's Result was spliced from
	// Config.Reuse instead of re-running its session.
	Reused bool
}

// OwnerRun is the outcome of the full pipeline for one owner.
type OwnerRun struct {
	Owner     graph.UserID
	Strangers []graph.UserID
	NSG       *cluster.NSG
	Pools     []PoolRun
	// Partial reports that the run degraded gracefully: the owner
	// abandoned the session or the context was canceled, finished
	// pools kept their learned labels, and interrupted pools carry
	// fallback labels (see PoolRun.Status / Fallback).
	Partial bool
	// Cause is the interruption behind a partial run (ErrAbandoned or
	// a context error); nil for complete runs.
	Cause error
	// Seed records the Config.Seed the run was produced under, so a
	// later run can check the per-pool RNG streams line up before
	// splicing results via Config.Reuse.
	Seed int64
}

// Labels gathers the final risk label of every stranger across pools.
func (r *OwnerRun) Labels() map[graph.UserID]label.Label {
	out := make(map[graph.UserID]label.Label, len(r.Strangers))
	for _, p := range r.Pools {
		for u, l := range p.Result.Labels {
			out[u] = l
		}
	}
	return out
}

// QueriedCount sums the owner labels collected across pools — the
// owner effort the paper wants minimized (paper mean: 86 labels for
// 3,661 strangers).
func (r *OwnerRun) QueriedCount() int {
	total := 0
	for _, p := range r.Pools {
		total += p.Result.QueriedCount()
	}
	return total
}

// ExactMatchRate returns the fraction of validation comparisons where
// the previous round's prediction exactly matched the owner label
// (paper: 83.36%), plus the number of comparisons. NaN with no
// comparisons.
func (r *OwnerRun) ExactMatchRate() (rate float64, total int) {
	matches := 0
	for _, p := range r.Pools {
		m, t := p.Result.ExactMatchStats()
		matches += m
		total += t
	}
	if total == 0 {
		return math.NaN(), 0
	}
	return float64(matches) / float64(total), total
}

// MeanRoundsToStop averages session length over the owner's
// non-trivial pools (paper: 3.29 rounds). NaN when every pool was
// trivial.
func (r *OwnerRun) MeanRoundsToStop() float64 {
	var rounds []float64
	for _, p := range r.Pools {
		if p.Result.Reason == active.StopTrivial {
			continue
		}
		rounds = append(rounds, float64(p.Result.RoundsToStop()))
	}
	return stats.Mean(rounds)
}

// FinalRMSE averages the last observed validation RMSE over pools that
// measured one.
func (r *OwnerRun) FinalRMSE() float64 {
	var vals []float64
	for _, p := range r.Pools {
		for i := len(p.Result.Rounds) - 1; i >= 0; i-- {
			if !math.IsNaN(p.Result.Rounds[i].RMSE) {
				vals = append(vals, p.Result.Rounds[i].RMSE)
				break
			}
		}
	}
	return stats.MeanIgnoringNaN(vals)
}

// VeryRiskyShareByNSG returns, per network similarity group (1-based
// index = slice index + 1), the share of strangers labeled very risky
// — Figure 7's series. Groups without strangers yield NaN.
func (r *OwnerRun) VeryRiskyShareByNSG() []float64 {
	labels := r.Labels()
	out := make([]float64, r.NSG.Alpha)
	for gi, members := range r.NSG.Groups {
		if len(members) == 0 {
			out[gi] = math.NaN()
			continue
		}
		very := 0
		for _, m := range members {
			if labels[m] == label.VeryRisky {
				very++
			}
		}
		out[gi] = float64(very) / float64(len(members))
	}
	return out
}

// Engine runs the pipeline.
type Engine struct {
	cfg Config
}

// New returns an engine with the given config.
func New(cfg Config) *Engine { return &Engine{cfg: cfg} }

// RunOwner executes the pipeline for one owner. confidence, when not
// NaN, overrides Learn.Confidence (the paper lets each owner choose
// their own). The annotator supplies owner labels on demand; wrap a
// legacy infallible annotator with active.Infallible.
//
// ctx bounds the run: cancellation (or Retry.SessionTimeout expiring)
// aborts cleanly at the next query boundary. Interruptions — ctx
// cancellation or the annotator returning active.ErrAbandoned — do
// not fail the run; it degrades gracefully into a partial OwnerRun
// (Partial true, Cause set) in which finished pools keep their
// learned labels and interrupted pools carry fallback labels. Only
// hard failures (unexpected annotator errors, classifier errors,
// failed checkpoint writes) return an error.
//
// Every pool runs the same per-pool body (runPool). With
// Config.Workers != 1 the pools — weight-matrix builds and
// active-learning sessions — run concurrently, bounded by Workers. The
// returned OwnerRun is identical to the Workers = 1 one for any
// deterministic annotator: pools are merged back in pool order, every
// pool keeps its own derived RNG stream, and annotator queries are
// serialized in a deterministic rotation (see runPoolsFanOut).
// The annotator therefore never needs to be thread-safe; it must only
// be deterministic per stranger if reproducible reports are wanted.
func (e *Engine) RunOwner(ctx context.Context, g *graph.Graph, store *profile.Store, owner graph.UserID, ann active.FallibleAnnotator, confidence float64) (*OwnerRun, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := e.cfg.Validate(); err != nil {
		return nil, err
	}
	if store == nil {
		return nil, fmt.Errorf("core: profile store must not be nil")
	}
	// A nil graph is allowed when a frozen snapshot answers every
	// structural query (the mmap-backed path, where no mutable graph
	// ever exists).
	if g == nil && e.cfg.Snapshot == nil {
		return nil, fmt.Errorf("core: graph or Config.Snapshot required")
	}
	if ann == nil {
		return nil, fmt.Errorf("core: annotator must not be nil")
	}
	if g != nil {
		if !g.HasNode(owner) {
			return nil, fmt.Errorf("core: owner %d not in graph", owner)
		}
	} else if !e.cfg.Snapshot.HasNode(owner) {
		return nil, fmt.Errorf("core: owner %d not in graph", owner)
	}
	if e.cfg.Resume != nil {
		if err := e.cfg.Resume.validateResume(owner, e.cfg.Seed); err != nil {
			return nil, err
		}
	}
	if e.cfg.Retry.SessionTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.Retry.SessionTimeout)
		defer cancel()
	}
	snap := e.cfg.Snapshot
	if snap == nil {
		snap = g.Snapshot()
	}
	strangers := snap.Strangers(owner)
	pools, nsg, err := cluster.BuildPoolsSnapshot(snap, store, owner, strangers, e.cfg.Pool)
	if err != nil {
		return nil, fmt.Errorf("core: owner %d: %w", owner, err)
	}

	run := &OwnerRun{Owner: owner, Strangers: strangers, NSG: nsg, Seed: e.cfg.Seed}
	learn := e.cfg.Learn
	if !math.IsNaN(confidence) {
		learn.Confidence = confidence
	}

	if m := e.cfg.Metrics; m != nil {
		m.Runs.Add(1)
		m.NSBuilds.Add(uint64(len(strangers)))
		m.PoolsBuilt.Add(uint64(len(pools)))
		if e.cfg.Pool.Strategy == cluster.NPP {
			m.SqueezerPasses.Add(uint64(nonEmptyGroups(nsg)))
		}
		for _, p := range pools {
			m.PoolSizes.Observe(len(p.Members))
		}
		if e.cfg.Weights != nil {
			e.cfg.Weights.SetMetrics(m)
		}
	}
	if sink := e.cfg.Observer; sink != nil {
		sink.Observe(obs.Event{Kind: obs.KindRunStart, Tenant: e.cfg.Tenant, Owner: int64(owner), N: len(strangers)})
		if e.cfg.Trace.Digests {
			sink.Observe(obs.Event{Kind: obs.KindNSG, Tenant: e.cfg.Tenant, Owner: int64(owner), N: nonEmptyGroups(nsg), Digest: nsgDigest(nsg)})
			sink.Observe(obs.Event{Kind: obs.KindPools, Tenant: e.cfg.Tenant, Owner: int64(owner), N: len(pools), Digest: poolsDigest(pools)})
		}
	}

	// Assemble the fault-tolerance middleware around the caller's
	// annotator, innermost first: retries for transient failures, the
	// abandonment grace window, then the shared abandonment latch. The
	// per-pool layers (replay cache, checkpoint recorder) are stacked
	// on top by chain(), and the fan-out loop finally adds the turn
	// gate above everything so cached and fresh queries alike keep
	// their deterministic slot in the rotation.
	var k *checkpointer
	if e.cfg.Checkpoint != nil {
		k = newCheckpointer(owner, e.cfg.Seed, e.cfg.Checkpoint)
	}
	var onRetry func()
	if m := e.cfg.Metrics; m != nil {
		onRetry = func() { m.Retries.Add(1) }
	}
	base := active.WithRetryHook(ann, e.cfg.Retry, onRetry)
	if e.cfg.AbandonGrace > 0 {
		base = graceAnnotator{grace: e.cfg.AbandonGrace, inner: base}
	}
	base = latchAnnotator{latch: &abandonLatch{}, inner: base}
	chain := func(poolID string) active.FallibleAnnotator {
		a := base
		if e.cfg.Resume != nil {
			if pc := e.cfg.Resume.Pools[poolID]; pc != nil && len(pc.Answers) > 0 {
				a = replayAnnotator{cache: pc.answers(), inner: a}
			}
		}
		if k != nil {
			a = recordAnnotator{k: k, poolID: poolID, inner: a}
		}
		return a
	}

	exp := e.cfg.WeightExponent
	if exp == 0 {
		exp = 4
	}
	op := &ownerPools{store: store, owner: owner, pools: pools, chain: chain, k: k, learn: learn, exp: exp}
	op.reuse = e.reusePlan(store, owner, pools, exp)
	if workers := parallel.ResolveWorkers(e.cfg.Workers); workers > 1 && len(pools) > 1 {
		err = e.runPoolsFanOut(ctx, run, op, workers)
	} else {
		err = e.runPoolsInline(ctx, run, op)
	}
	if err != nil {
		return nil, err
	}
	if run.Partial {
		fillFallbacks(run)
	}
	if err := k.flush(); err != nil {
		return nil, err
	}
	if sink := e.cfg.Observer; sink != nil {
		ev := obs.Event{Kind: obs.KindRunEnd, Tenant: e.cfg.Tenant, Owner: int64(owner), N: run.QueriedCount()}
		if run.Partial {
			ev.Note = "partial"
		}
		sink.Observe(ev)
	}
	return run, nil
}

// nonEmptyGroups counts the NSG groups that actually hold strangers —
// the number of Squeezer passes NPP pooling performs.
func nonEmptyGroups(nsg *cluster.NSG) int {
	n := 0
	for _, g := range nsg.Groups {
		if len(g) > 0 {
			n++
		}
	}
	return n
}

// nsgDigest fingerprints NSG membership: group index, size, and member
// ids in stored order. Any assignment or ordering difference between
// two runs changes it.
func nsgDigest(nsg *cluster.NSG) obs.Digest {
	d := obs.NewDigest()
	for gi, g := range nsg.Groups {
		d = d.Int(int64(gi)).Int(int64(len(g)))
		for _, m := range g {
			d = d.Int(int64(m))
		}
	}
	return d
}

// poolsDigest fingerprints the pool partition: pool ids, sizes and
// member order — the inputs every downstream stage depends on.
func poolsDigest(pools []cluster.Pool) obs.Digest {
	d := obs.NewDigest()
	for _, p := range pools {
		d = d.Str(p.ID()).Int(int64(len(p.Members)))
		for _, m := range p.Members {
			d = d.Int(int64(m))
		}
	}
	return d
}

// poolEvent builds one pool-boundary event.
func (e *Engine) poolEvent(kind obs.Kind, owner graph.UserID, poolID string, n int, note string) obs.Event {
	return obs.Event{Kind: kind, Tenant: e.cfg.Tenant, Owner: int64(owner), Pool: poolID, N: n, Note: note}
}

// poolObserve adapts sink into the active session's per-event hook,
// stamping tenant/owner/pool identity onto every event. A nil sink
// yields a nil hook so the session skips event construction entirely.
func (e *Engine) poolObserve(sink obs.Observer, owner graph.UserID, poolID string) func(obs.Event) {
	if sink == nil {
		return nil
	}
	tenant := e.cfg.Tenant
	return func(ev obs.Event) {
		ev.Tenant = tenant
		ev.Owner = int64(owner)
		ev.Pool = poolID
		sink.Observe(ev)
	}
}

// newClassifier builds a fresh per-pool harmonic classifier, wired into
// the metrics' solver counters when configured.
func (e *Engine) newClassifier() *classify.Harmonic {
	h := classify.NewHarmonic()
	if m := e.cfg.Metrics; m != nil {
		h.Iterations = func(iters int) {
			m.HarmonicSolves.Add(1)
			m.HarmonicIters.Add(uint64(iters))
			m.SolveIters.Observe(iters)
		}
	}
	return h
}

// reusePlan maps each freshly-built pool index to the prior PoolRun
// (from Config.Reuse) whose result can be spliced in verbatim, or nil
// where the pool must run. A pool is reusable iff the prior run
// matches this one's owner and seed, completed fully, and the pool at
// the same index has the same id, identical members and an unchanged
// weight-content key — together those pin every session input: the
// member list, the weight matrix (content-keyed) and the RNG stream
// (derived from seed, owner and pool index). Returns nil when nothing
// is reusable.
func (e *Engine) reusePlan(store *profile.Store, owner graph.UserID, pools []cluster.Pool, exp float64) []*PoolRun {
	prior := e.cfg.Reuse
	if prior == nil || prior.Owner != owner || prior.Seed != e.cfg.Seed || prior.Partial {
		return nil
	}
	var plan []*PoolRun
	n := len(pools)
	if len(prior.Pools) < n {
		n = len(prior.Pools)
	}
	for i := 0; i < n; i++ {
		pp := &prior.Pools[i]
		if pp.Status != PoolComplete || pp.Result == nil || pp.WeightKey.IsZero() {
			continue
		}
		if pp.Pool.ID() != pools[i].ID() || !sameMembers(pp.Pool.Members, pools[i].Members) {
			continue
		}
		if cluster.PoolKey(store, pools[i], e.cfg.PSAttributes, exp) != pp.WeightKey {
			continue
		}
		if plan == nil {
			plan = make([]*PoolRun, len(pools))
		}
		plan[i] = pp
	}
	return plan
}

// sameMembers reports whether two member lists are identical in
// content and order (pool order is part of the session's inputs).
func sameMembers(a, b []graph.UserID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// reusedPoolRun splices a prior pool result into the current run.
func reusedPoolRun(pool cluster.Pool, prior *PoolRun) PoolRun {
	return PoolRun{
		Pool:      pool,
		Result:    prior.Result,
		Status:    PoolComplete,
		WeightKey: prior.WeightKey,
		Reused:    true,
	}
}

// emitPool delivers one finalized pool to the OnPool callback.
func (e *Engine) emitPool(run *OwnerRun, pr PoolRun, index, total int) {
	if e.cfg.OnPool != nil {
		e.cfg.OnPool(run, pr, index, total)
	}
}

// poolWeights builds (or, with a shared Weights cache configured,
// fetches) the pool's PS weight matrix. Cached matrices are shared and
// read-only — identical by content to a fresh build.
func (e *Engine) poolWeights(store *profile.Store, pool cluster.Pool, exp float64) ([][]float64, error) {
	if e.cfg.Weights != nil {
		return e.cfg.Weights.PoolWeights(store, pool, e.cfg.PSAttributes, exp)
	}
	return cluster.PoolWeights(store, pool, e.cfg.PSAttributes, exp)
}

// ownerPools is what every pool of one owner run shares: the session
// inputs and the run-level annotator middleware.
type ownerPools struct {
	store *profile.Store
	owner graph.UserID
	pools []cluster.Pool
	// chain stacks the per-pool annotator layers (replay cache,
	// checkpoint recorder) over the run's shared middleware.
	chain func(poolID string) active.FallibleAnnotator
	k     *checkpointer
	learn active.Config
	exp   float64
	// reuse is Engine.reusePlan's splice plan; nil when nothing is
	// reusable.
	reuse []*PoolRun
	// limiter, when set, bounds weight builds alongside classifier
	// solves (the fan-out loop); nil builds inline.
	limiter *parallel.Limiter
}

// runPool runs pool i to its outcome. It is the one per-pool body both
// pool loops share: reuse splice, pool.start, the timed weight build,
// the learning session, pool.end and the metrics. sink receives the
// pool's events (nil for none), ann answers its questions and clf
// solves its rounds — the inline loop passes the run's own, the
// fan-out loop a per-pool buffer, the gated annotator and the
// limited classifier. cause is the interruption (abandonment or
// cancellation) that left the pool partial; err is a hard failure.
func (e *Engine) runPool(ctx context.Context, op *ownerPools, i int, sink obs.Observer, ann active.FallibleAnnotator, clf classify.Classifier) (pr PoolRun, cause, err error) {
	pool := op.pools[i]
	poolID := pool.ID()
	obs.Emit(sink, e.poolEvent(obs.KindPoolStart, op.owner, poolID, len(pool.Members), ""))
	if op.reuse != nil && op.reuse[i] != nil {
		pr = reusedPoolRun(pool, op.reuse[i])
		op.k.markDone(poolID)
		obs.Emit(sink, e.poolEvent(obs.KindPoolEnd, op.owner, poolID, len(pr.Result.Rounds), "reused"))
		if m := e.cfg.Metrics; m != nil {
			m.PoolsReused.Add(1)
		}
		return pr, nil, nil
	}
	var weights [][]float64
	var dur time.Duration
	build := func() {
		t0 := time.Now()
		weights, err = e.poolWeights(op.store, pool, op.exp)
		dur = time.Since(t0)
	}
	if op.limiter != nil {
		op.limiter.Do(build)
	} else {
		build()
	}
	if err != nil {
		return pr, nil, fmt.Errorf("core: %w", err)
	}
	wkey := cluster.PoolKey(op.store, pool, e.cfg.PSAttributes, op.exp)
	wev := e.poolEvent(obs.KindPoolWeights, op.owner, poolID, len(pool.Members), "")
	wev.Dur = dur
	obs.Emit(sink, wev)

	cfg := op.learn
	cfg.Rand = rand.New(rand.NewSource(poolSeed(e.cfg.Seed, op.owner, i)))
	cfg.Classifier = clf
	if op.k != nil {
		cfg.AfterRound = func(r active.Round) error { return op.k.afterRound(poolID, r) }
	}
	if sink != nil {
		cfg.Observe = e.poolObserve(sink, op.owner, poolID)
		cfg.Digests = e.cfg.Trace.Digests
	}
	sess, err := active.NewSession(pool.Members, weights, ann, cfg)
	if err != nil {
		return pr, nil, fmt.Errorf("core: pool %s: %w", poolID, err)
	}
	res, err := sess.RunContext(ctx)
	switch {
	case err == nil:
		op.k.markDone(poolID)
		pr = PoolRun{Pool: pool, Result: res, Status: PoolComplete, WeightKey: wkey}
	case isInterrupt(err) && res != nil:
		cause = err
		pr = PoolRun{Pool: pool, Result: res, Status: PoolPartial, WeightKey: wkey}
	default:
		return pr, nil, fmt.Errorf("core: pool %s: %w", poolID, err)
	}
	obs.Emit(sink, e.poolEvent(obs.KindPoolEnd, op.owner, poolID, len(res.Rounds), string(res.Reason)))
	if m := e.cfg.Metrics; m != nil {
		m.Rounds.Add(uint64(len(res.Rounds)))
		m.RoundsPerPool.Observe(len(res.Rounds))
		m.Queries.Add(uint64(res.QueriedCount()))
	}
	return pr, cause, nil
}

// runPoolsInline runs the pools one after another on the caller's
// goroutine (Workers == 1, or a single pool): owner questions come
// pool by pool, events go straight to the observer, and OnPool and
// Progress stream as each pool finishes. Once the run is interrupted
// it stops asking questions: the interrupted pool keeps its partial
// result and every later pool becomes an empty partial stub for
// fillFallbacks to complete.
func (e *Engine) runPoolsInline(ctx context.Context, run *OwnerRun, op *ownerPools) error {
	sink := e.cfg.Observer
	labels := 0
	for i, pool := range op.pools {
		var pr PoolRun
		if run.Partial {
			pr = PoolRun{Pool: pool, Result: emptyInterruptedResult(pool), Status: PoolPartial}
			obs.Emit(sink, e.poolEvent(obs.KindPoolStart, op.owner, pool.ID(), len(pool.Members), ""))
			obs.Emit(sink, e.poolEvent(obs.KindPoolEnd, op.owner, pool.ID(), 0, "interrupted"))
		} else {
			var cause, err error
			pr, cause, err = e.runPool(ctx, op, i, sink, op.chain(pool.ID()), e.poolClassifier(op.learn.Classifier))
			if err != nil {
				return err
			}
			if cause != nil {
				run.Partial, run.Cause = true, cause
			}
			if !pr.Reused {
				labels += pr.Result.QueriedCount()
			}
		}
		run.Pools = append(run.Pools, pr)
		e.emitPool(run, pr, i, len(op.pools))
		if e.cfg.Progress != nil {
			e.cfg.Progress(i+1, len(op.pools), labels)
		}
	}
	return nil
}

// emptyInterruptedResult stands in for a session that was never
// started because the run was already interrupted.
func emptyInterruptedResult(pool cluster.Pool) *active.Result {
	return &active.Result{
		Pool:         pool.Members,
		Labels:       make(map[graph.UserID]label.Label),
		OwnerLabeled: make(map[graph.UserID]bool),
		Predicted:    make(map[graph.UserID]classify.Prediction),
		Reason:       active.StopInterrupted,
	}
}

// poolSeed derives the per-pool sampling RNG seed. It depends only on
// the base seed, the owner and the pool's index in pool order, so the
// inline and fan-out loops draw identical query samples.
func poolSeed(seed int64, owner graph.UserID, pool int) int64 {
	return seed + int64(owner)*7919 + int64(pool)*104729
}
