package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	sight "sightrisk"
	"sightrisk/client"
	"sightrisk/internal/active"
	"sightrisk/internal/core"
	"sightrisk/internal/dataset"
	"sightrisk/internal/delta"
	"sightrisk/internal/graph"
	"sightrisk/internal/ldp"
	"sightrisk/internal/profile"
	"sightrisk/internal/server"
)

const (
	// crawlTracked is how many owners keep standing estimates that the
	// feed revises, round robin.
	crawlTracked = 4
	// crawlTail is the refresh percentile reported as the tail, and
	// crawlMinTicks the tick count that leaves ten samples beyond it.
	crawlTail     = 75
	crawlMinTicks = 40
	// crawlTenant is the feed's analytics tenant.
	crawlTenant = "crawl-feed"
	// crawlReplayTicks is how many leading ticks a traced run replays.
	crawlReplayTicks = 6
)

// crawlSetup is a started crawl_refresh server with its standing
// estimates.
type crawlSetup struct {
	ds      *dataset.Dataset
	rt      *dataset.Runtime
	fx      *fixture
	c       *client.Client
	nodes   []graph.UserID
	tracked []dataset.OwnerRecord
	jobs    []string         // latest job per tracked owner
	reports []*client.Report // latest report per tracked owner
	priors  [][]byte         // the set-up runs' reports
}

// setupCrawl generates the wide study, starts sightd over a mutable
// runtime and runs the tracked owners' prior stored-annotator
// estimates.
func setupCrawl(ctx context.Context, o options, tr *tracer) (*crawlSetup, error) {
	ds, err := wideStudy(o.seed)
	if err != nil {
		return nil, err
	}
	rt := ds.Runtime()
	fx, err := startServer(server.Config{Runtimes: map[string]*dataset.Runtime{wideName: rt}, Workers: serverWorkers}, tr, "")
	if err != nil {
		return nil, err
	}
	s := &crawlSetup{ds: ds, rt: rt, fx: fx, c: fx.client(), nodes: ds.Graph.Nodes()}
	rng := rand.New(rand.NewSource(o.seed))
	for _, i := range rng.Perm(len(ds.Owners))[:crawlTracked] {
		rec := ds.Owners[i]
		st, err := s.c.Submit(ctx, &client.EstimateRequest{Dataset: wideName, Owner: int64(rec.ID), Annotator: client.AnnotatorStored})
		var rep *client.Report
		if err == nil {
			rep, err = awaitReport(ctx, s.c, st.ID)
		}
		var body []byte
		if err == nil {
			body, err = json.Marshal(rep)
		}
		if err != nil {
			fx.stop() // the prior run's error is the one to report
			return nil, fmt.Errorf("prior run of owner %d: %w", rec.ID, err)
		}
		s.tracked = append(s.tracked, rec)
		s.jobs = append(s.jobs, st.ID)
		s.reports = append(s.reports, rep)
		s.priors = append(s.priors, body)
	}
	return s, nil
}

// awaitReport follows a job's delta stream to its terminal line — the
// wake-up that marks completion — and returns the report.
func awaitReport(ctx context.Context, c *client.Client, id string) (*client.Report, error) {
	d, err := c.StreamDeltas(ctx, id, nil)
	if err != nil {
		return nil, err
	}
	if d.JobStatus != client.StatusDone || d.Report == nil {
		return nil, fmt.Errorf("job %s ended %s: %v", id, d.JobStatus, d.Error)
	}
	return d.Report, nil
}

// tick is one served feed tick, kept for the checks and the replay.
type tick struct {
	owner   int // index into the tracked owners
	updates []client.Update
	revised []byte
	stats   []byte
	epoch   uint64
	gen     uint64
}

// runCrawlRefresh is the write path: one closed-loop feed client posts
// a two-record update batch, revises the touched owner's standing
// estimate and takes a fresh-epoch analytics release, tick after tick.
func runCrawlRefresh(ctx context.Context, o options) (*result, error) {
	res := newResult(o)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var su setupLog
	var s *crawlSetup
	if err := su.run(func() (err error) { s, err = setupCrawl(ctx, o, tr); return err }); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	describe(res, wideName, s.ds)

	var run tally
	var ticks []tick
	var updates, refreshes, fresh []float64
	var updSplit, refSplit [2][]float64 // [untraced, traced]
	attrs := profile.AllAttributes()
	rng := rand.New(rand.NewSource(o.seed + 1))
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if (el >= o.seconds && i >= crawlMinTicks) || el >= maxRun {
			break
		}
		k := i % len(s.tracked)
		// A traced run traces every other round of the tracked owners.
		on := o.trace && (i/len(s.tracked))%2 == 1
		tctx := traced(ctx, on)
		rep := s.reports[k]
		ia, ib := rng.Intn(len(s.nodes)), rng.Intn(len(s.nodes)-1)
		if ib >= ia {
			ib++ // two distinct nodes, uniformly
		}
		a, b := s.nodes[ia], s.nodes[ib]
		ups := []client.Update{
			{Kind: string(delta.ProfileSet), A: rep.Strangers[rng.Intn(len(rep.Strangers))].User,
				Attr: string(attrs[rng.Intn(len(attrs))]), Value: fmt.Sprintf("crawl-%d-%d", o.seed, i)},
			{Kind: string(delta.EdgeAdd), A: int64(a), B: int64(b)},
		}
		t0 := time.Now()
		_, err := s.c.Updates(tctx, &client.UpdatesRequest{Dataset: wideName, Owner: int64(s.tracked[k].ID), Updates: ups})
		if !run.record(err) {
			res.fail("tick %d update: %v", i, err)
			continue
		}
		upd := ms(time.Since(t0))
		st, err := s.c.Revise(tctx, s.jobs[k], nil)
		if !run.record(err) {
			res.fail("tick %d revise: %v", i, err)
			continue
		}
		revised, err := awaitReport(tctx, s.c, st.ID)
		if !run.record(err) {
			res.fail("tick %d refresh: %v", i, err)
			continue
		}
		ref := ms(time.Since(t0))
		s.jobs[k], s.reports[k] = st.ID, revised
		t1 := time.Now()
		sr, err := s.c.Stats(tctx, &client.StatsRequest{Dataset: wideName, Tenant: crawlTenant, Epoch: uint64(i + 1)})
		if !run.record(err) {
			res.fail("tick %d stats: %v", i, err)
			continue
		}
		fresh = append(fresh, ms(time.Since(t1)))
		updates = append(updates, upd)
		refreshes = append(refreshes, ref)
		updSplit[b2i(on)] = append(updSplit[b2i(on)], upd)
		refSplit[b2i(on)] = append(refSplit[b2i(on)], ref)
		revBody, err1 := json.Marshal(revised)
		statsBody, err2 := json.Marshal(sr)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("encode tick %d: %v %v", i, err1, err2)
		}
		ticks = append(ticks, tick{owner: k, updates: ups, revised: revBody, stats: statsBody, epoch: sr.Epoch, gen: sr.Generation})
	}
	elapsed := time.Since(start)
	rss := peakRSSMB()
	res.addPhase("run", run)

	// Checks, outside the timed window: revise every tracked owner once
	// more against the post-run graph, then recompute each from scratch
	// in-process; the two reports must be byte-identical.
	var check tally
	pool := 0
	last := make([][]byte, len(s.tracked))
	for k := range s.tracked {
		st, err := s.c.Revise(ctx, s.jobs[k], nil)
		var rep *client.Report
		if err == nil {
			rep, err = awaitReport(ctx, s.c, st.ID)
		}
		if err == nil {
			last[k], err = json.Marshal(rep)
			pool = max(pool, largestPool(rep))
		}
		if !check.record(err) {
			res.fail("check: final revise of owner %d: %v", s.tracked[k].ID, err)
		}
	}
	if o.trace {
		serverLayers(res, tr)
		cacheLayer(res, s.fx)
		res.layers["trace.step_overhead_ms"] = overhead(updSplit)
		res.layers["trace.p50_overhead_ms"] = overhead(refSplit)
	}
	if err := s.fx.stop(); !su.record(err) {
		res.fail("teardown: %v", err)
	}
	net := sight.WrapNetwork(s.rt.Graph, s.rt.Profiles)
	for k, rec := range s.tracked {
		if last[k] == nil {
			continue
		}
		want, err := referenceReport(ctx, net, rec)
		if err == nil {
			err = sameBytes(fmt.Sprintf("owner %d last revision vs full recompute", rec.ID), last[k], want)
		}
		if !check.record(err) {
			res.fail("check: %v", err)
		}
	}
	if o.trace {
		replayCrawl(ctx, res, &check, o, s, ticks)
	}
	res.addPhase("check", check)

	err := su.repeat(res, func() (*fixture, error) {
		s, err := setupCrawl(ctx, o, nil)
		if err != nil {
			return nil, err
		}
		return s.fx, nil
	})
	if err != nil {
		return nil, err
	}
	res.conditions["largest_pool"] = pool

	res.figures = append(res.figures,
		latencyFigure("refresh_p50_ms", refreshes, 50, "p50_ms"),
		latencyFigure(fmt.Sprintf("refresh_p%d_ms", crawlTail), refreshes, crawlTail, "tail_ms"),
		latencyFigure("update_p50_ms", updates, 50, "step_ms"),
		latencyFigure("fresh_stats_p50_ms", fresh, 50, ""),
		figure{name: "refreshes_per_s", value: float64(len(refreshes)) / elapsed.Seconds(), unit: "1/s", n: len(refreshes), slot: "ops_per_s"},
	)
	su.finish(res, rss)
	return res, nil
}

// toBatch converts wire updates to engine delta records.
func toBatch(us []client.Update) delta.Batch {
	b := make(delta.Batch, len(us))
	for i, u := range us {
		b[i] = delta.Update{Kind: delta.Kind(u.Kind), A: graph.UserID(u.A), B: graph.UserID(u.B), Attr: u.Attr, Value: u.Value, Visible: u.Visible}
	}
	return b
}

// replayCrawl replays the run's first ticks on the benchmark's own copy
// of the wide study — apply, snapshot, dirty filter, revise, estimator
// build and release — timing each and checking the revised reports and
// releases against the served ones. Figures are per replayed tick.
func replayCrawl(ctx context.Context, res *result, check *tally, o options, s *crawlSetup, ticks []tick) {
	ds, err := wideStudy(o.seed)
	if !check.record(err) {
		res.fail("replay: %v", err)
		return
	}
	cfg, err := engineConfig()
	if !check.record(err) {
		res.fail("replay: %v", err)
		return
	}
	g, store := ds.Graph, ds.ProfileStore()
	snap := g.Snapshot()
	owners := ds.OwnerIDs()
	priors := make([]*core.OwnerRun, len(s.tracked))
	for k, rec := range s.tracked {
		pc := cfg
		pc.Snapshot = snap
		run, err := core.New(pc).RunOwner(ctx, g, store, rec.ID, active.Infallible(storedAnnotator(rec)), math.NaN())
		if err == nil {
			var got []byte
			if got, err = reportBytes(run); err == nil {
				err = sameBytes(fmt.Sprintf("owner %d prior replay vs served", rec.ID), got, s.priors[k])
			}
		}
		if !check.record(err) {
			res.fail("replay: %v", err)
			return
		}
		priors[k] = run
	}
	if len(ticks) > crawlReplayTicks {
		ticks = ticks[:crawlReplayTicks]
	}
	pending := make([]delta.Batch, len(s.tracked))
	clf := newTimedClassifier()
	params := ldp.Params{Epsilon: 1, Mode: ldp.ModeVisibilityAware}
	var applyT, snapT, dirtyT, reviseT, buildT time.Duration
	var reports []float64
	reused, total, rerun := 0, 0, 0
	for i, t := range ticks {
		batch := toBatch(t.updates)
		t0 := time.Now()
		next, err := batch.ApplyCloned(g, store)
		applyT += time.Since(t0)
		if !check.record(err) {
			res.fail("replay tick %d: %v", i, err)
			return
		}
		store = next
		t0 = time.Now()
		snap = g.Snapshot()
		snapT += time.Since(t0)
		t0 = time.Now()
		delta.DirtyOwners(g, owners, batch)
		dirtyT += time.Since(t0)
		for k := range pending {
			pending[k] = append(pending[k], batch...)
		}
		rc := cfg
		rc.Learn.Classifier = clf
		rec := s.tracked[t.owner]
		t0 = time.Now()
		run, st, err := delta.Revise(ctx, rc, g, store, rec.ID, active.Infallible(storedAnnotator(rec)), math.NaN(), priors[t.owner], pending[t.owner])
		reviseT += time.Since(t0)
		if err == nil {
			var got []byte
			if got, err = reportBytes(run); err == nil {
				err = sameBytes(fmt.Sprintf("tick %d revision replay vs served", i), got, t.revised)
			}
		}
		if !check.record(err) {
			res.fail("replay: %v", err)
			return
		}
		priors[t.owner], pending[t.owner] = run, nil
		reused += st.PoolsReused
		total += st.PoolsTotal
		rerun += st.PoolsRerun

		t0 = time.Now()
		est := ldp.NewEstimator(snap, store)
		buildT += time.Since(t0)
		t0 = time.Now()
		rep, err := est.Report(params, ldp.SeedFor(crawlTenant, wideName, t.epoch, t.gen, params))
		reports = append(reports, ms(time.Since(t0)))
		if err == nil {
			var got []byte
			if got, err = json.Marshal(statsResponse(wideName, crawlTenant, t.epoch, t.gen, rep)); err == nil {
				err = sameBytes(fmt.Sprintf("tick %d release replay vs served", i), got, t.stats)
			}
		}
		if !check.record(err) {
			res.fail("replay: %v", err)
			return
		}
	}
	n := float64(len(ticks))
	if n == 0 {
		return
	}
	res.layers["delta.apply_ms"] = ms(applyT) / n
	res.layers["graph.snapshot_ms"] = ms(snapT) / n
	res.layers["delta.dirty_ms"] = ms(dirtyT) / n
	res.layers["delta.revise_ms"] = ms(reviseT) / n
	if total > 0 {
		res.layers["delta.reuse_share"] = float64(reused) / float64(total)
	}
	res.layers["delta.pools_rerun"] = float64(rerun) / n
	res.layers["ldp.build_ms"] = ms(buildT) / n
	ldpReportLayers(res, reports)
	classifyLayers(res, clf, len(ticks))
}
