package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"sightrisk/client"
	"sightrisk/internal/dataset"
	"sightrisk/internal/ldp"
	"sightrisk/internal/server"
)

const (
	// tenantRate is the offered /v1/stats arrival rate. A release costs
	// about 35 ms of one CPU, so two connections on two CPUs run at
	// about a third of capacity: queueing shows in the tail without a
	// growing backlog.
	tenantRate = 20.0
	// tenantConns is how many connections carry the arrivals.
	tenantConns = 2
	// tenantPool is how many tenants the releases are spread over.
	tenantPool = 8
	// tenantReplayEvery makes one release in four replay an earlier
	// (tenant, epoch).
	tenantReplayEvery = 4
	// tenantTail is the latency percentile reported as the tail; the
	// fixed arrival count leaves well over ten samples beyond it.
	tenantTail = 95
	// tenantReplayReports is how many releases a traced run replays.
	tenantReplayReports = 60
)

// tenantSetup is a started tenant_stats server.
type tenantSetup struct {
	ds *dataset.Dataset
	fx *fixture
}

// setupTenant generates the wide study, starts sightd over it with a
// budget no release can exhaust, and warms the dataset's estimator
// with one release so the run measures serving, not the first build.
func setupTenant(ctx context.Context, o options, tr *tracer, budget float64) (*tenantSetup, error) {
	ds, err := wideStudy(o.seed)
	if err != nil {
		return nil, err
	}
	fx, err := startServer(server.Config{Datasets: map[string]*dataset.Dataset{wideName: ds}, Workers: serverWorkers, StatsBudget: budget}, tr, "")
	if err != nil {
		return nil, err
	}
	if _, err := fx.client().Stats(ctx, &client.StatsRequest{Dataset: wideName, Tenant: "warm-up"}); err != nil {
		fx.stop() // the warm-up error is the one to report
		return nil, fmt.Errorf("warm-up release: %w", err)
	}
	return &tenantSetup{ds: ds, fx: fx}, nil
}

// arrival is one scheduled release.
type arrival struct {
	due    time.Duration // offset from the window's start
	tenant string
	epoch  uint64
	replay bool
}

// schedule draws n Poisson arrivals over the window: a Poisson process
// conditioned on its count has independent uniform arrival times, so
// every run offers exactly n requests. One in tenantReplayEvery
// replays an earlier fresh release.
func schedule(rng *rand.Rand, n int, window time.Duration) []arrival {
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = rng.Float64() * float64(window)
	}
	sort.Float64s(dues)
	out := make([]arrival, n)
	epochs := map[string]uint64{}
	var fresh []int
	for i := range out {
		out[i].due = time.Duration(dues[i])
		if len(fresh) > 0 && rng.Intn(tenantReplayEvery) == 0 {
			p := out[fresh[rng.Intn(len(fresh))]]
			out[i].tenant, out[i].epoch, out[i].replay = p.tenant, p.epoch, true
			continue
		}
		tn := fmt.Sprintf("tenant-%d", rng.Intn(tenantPool))
		epochs[tn]++
		out[i].tenant, out[i].epoch = tn, epochs[tn]
		fresh = append(fresh, i)
	}
	return out
}

// release is one served (or failed) release.
type release struct {
	sent, done time.Duration // offsets from the window's start
	lag        time.Duration // how late the generator released it
	body       []byte
	status     int // HTTP status of a refused release, 0 otherwise
	err        error
}

// runTenantStats is the analytics read path: open-loop Poisson
// arrivals of /v1/stats from independent tenants over at most two
// connections, each timed from when it was due.
func runTenantStats(ctx context.Context, o options) (*result, error) {
	res := newResult(o)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	n := int(tenantRate*o.seconds.Seconds() + 0.5)
	if n < 1 {
		n = 1
	}
	budget := float64(ldp.Mechanisms * (n + 1))
	var su setupLog
	var s *tenantSetup
	if err := su.run(func() (err error) { s, err = setupTenant(ctx, o, tr, budget); return err }); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	describe(res, wideName, s.ds)
	res.conditions["tenant_rate_per_s"] = tenantRate
	res.conditions["tenant_arrivals"] = n

	plan := schedule(rand.New(rand.NewSource(o.seed)), n, o.seconds)
	out := make([]release, n)
	queue := make(chan int, n) // sized to the arrivals: the generator never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < tenantConns; w++ {
		c := s.fx.client()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				a := plan[i]
				r := &out[i]
				r.sent = time.Since(start)
				sr, err := c.Stats(traced(ctx, o.trace && i%2 == 1), &client.StatsRequest{Dataset: wideName, Tenant: a.tenant, Epoch: a.epoch})
				r.done = time.Since(start)
				if err == nil {
					r.body, err = json.Marshal(sr)
				}
				r.err = err
				if apiErr, ok := err.(*client.APIError); ok {
					r.status = apiErr.Status
				}
			}
		}()
	}
	for i, a := range plan {
		if d := a.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		out[i].lag = time.Since(start) - a.due
		queue <- i
	}
	close(queue)
	wg.Wait()
	rss := peakRSSMB()

	var run tally
	var lat, rtt, lags []float64
	var latSplit, rttSplit [2][]float64
	var last time.Duration
	refused, replays := 0, 0
	for i, r := range out {
		lags = append(lags, ms(r.lag))
		if r.status == 429 {
			refused++
		}
		if !run.record(r.err) {
			res.fail("release %d (%s epoch %d): %v", i, plan[i].tenant, plan[i].epoch, r.err)
			continue
		}
		if plan[i].replay {
			replays++
		}
		l, t := ms(r.done-plan[i].due), ms(r.done-r.sent)
		lat = append(lat, l)
		rtt = append(rtt, t)
		latSplit[i%2] = append(latSplit[i%2], l)
		rttSplit[i%2] = append(rttSplit[i%2], t)
		last = max(last, r.done)
	}
	res.addPhase("run", run)

	// Checks, outside the timed window: every replay is byte-identical
	// to the first release of its (tenant, epoch), and nothing was
	// refused.
	var check tally
	first := map[string][]byte{}
	for i, r := range out {
		if r.err != nil {
			continue
		}
		key := fmt.Sprintf("%s/%d", plan[i].tenant, plan[i].epoch)
		want, ok := first[key]
		if !ok {
			first[key] = r.body
			continue
		}
		if err := sameBytes("replay of "+key, r.body, want); !check.record(err) {
			res.fail("check: %v", err)
		}
	}
	if !check.record(refusedErr(refused)) {
		res.fail("check: %v", refusedErr(refused))
	}
	if o.trace {
		serverLayers(res, tr)
		res.layers["client.send_lag_ms"] = percentile(lags, tenantTail)
		res.layers["ldp.replay_share"] = float64(replays) / float64(n)
		res.layers["ldp.refusals"] = float64(refused)
		res.layers["trace.step_overhead_ms"] = overhead(rttSplit)
		res.layers["trace.p50_overhead_ms"] = overhead(latSplit)
		replayTenant(res, &check, s, plan, out)
	}
	res.addPhase("check", check)
	if err := s.fx.stop(); !su.record(err) {
		res.fail("teardown: %v", err)
	}

	err := su.repeat(res, func() (*fixture, error) {
		s, err := setupTenant(ctx, o, nil, budget)
		if err != nil {
			return nil, err
		}
		return s.fx, nil
	})
	if err != nil {
		return nil, err
	}

	perS := 0.0
	if last > 0 {
		perS = float64(len(lat)) / last.Seconds()
	}
	res.figures = append(res.figures,
		latencyFigure("stats_p50_ms", lat, 50, "p50_ms"),
		latencyFigure(fmt.Sprintf("stats_p%d_ms", tenantTail), lat, tenantTail, "tail_ms"),
		latencyFigure("stats_rtt_p50_ms", rtt, 50, "step_ms"),
		figure{name: "releases_per_s", value: perS, unit: "1/s", n: len(lat), slot: "ops_per_s"},
		latencyFigure(fmt.Sprintf("send_lag_p%d_ms", tenantTail), lags, tenantTail, ""),
	)
	su.finish(res, rss)
	return res, nil
}

// refusedErr is the zero-429 check.
func refusedErr(refused int) error {
	if refused == 0 {
		return nil
	}
	return fmt.Errorf("%d release(s) refused with 429", refused)
}

// statsResponse renders a release exactly as sightd serves it.
func statsResponse(ds, tenant string, epoch, gen uint64, rep *ldp.Report) *client.StatsResponse {
	resp := &client.StatsResponse{
		Dataset:      ds,
		Tenant:       tenant,
		Epoch:        epoch,
		Generation:   gen,
		Noise:        string(rep.Mode),
		Epsilon:      rep.Epsilon,
		Nodes:        rep.Nodes,
		Profiles:     rep.Profiles,
		PublicUsers:  rep.PublicUsers,
		PublicEdges:  rep.PublicEdges,
		DegreeCap:    rep.DegreeCap,
		TriangleCap:  rep.TriangleCap,
		EdgeCount:    statsEstimate(rep.EdgeCount),
		Triangles:    statsEstimate(rep.Triangles),
		TwoStars:     statsEstimate(rep.TwoStars),
		ThreeStars:   statsEstimate(rep.ThreeStars),
		DegreeHistSE: rep.DegreeHistSE,
	}
	for _, b := range rep.DegreeHist {
		resp.DegreeHist = append(resp.DegreeHist, client.StatsBucket{Label: b.Label, Count: b.Count})
	}
	for _, ir := range rep.Visibility {
		resp.Visibility = append(resp.Visibility, client.StatsItemRate{Item: ir.Item, Rate: ir.Rate, SE: ir.SE})
	}
	return resp
}

func statsEstimate(e ldp.Estimate) client.StatsEstimate {
	return client.StatsEstimate{Value: e.Value, SE: e.SE, NoisedUsers: e.NoisedUsers}
}

// ldpReportLayers fills the release-time figures from a sample of
// replayed ldp.Estimator.Report calls.
func ldpReportLayers(res *result, reports []float64) {
	if len(reports) == 0 {
		return
	}
	res.layers["ldp.report_ms"] = mean(reports)
	res.layers["ldp.report_tail_ms"] = tailOf(reports)
}

// replayTenant builds the estimator on the benchmark's own snapshot of
// the study and replays the first traced releases, timing each and
// checking the bytes against the served ones.
func replayTenant(res *result, check *tally, s *tenantSetup, plan []arrival, out []release) {
	snap, store := s.ds.Graph.Snapshot(), s.ds.ProfileStore()
	t0 := time.Now()
	est := ldp.NewEstimator(snap, store)
	res.layers["ldp.build_ms"] = ms(time.Since(t0))
	params := ldp.Params{Epsilon: 1, Mode: ldp.ModeVisibilityAware}
	var reports []float64
	for i, r := range out {
		if len(reports) == tenantReplayReports {
			break
		}
		if r.err != nil || i%2 == 0 {
			continue
		}
		a := plan[i]
		t0 := time.Now()
		rep, err := est.Report(params, ldp.SeedFor(a.tenant, wideName, a.epoch, 0, params))
		reports = append(reports, ms(time.Since(t0)))
		if err == nil {
			var got []byte
			if got, err = json.Marshal(statsResponse(wideName, a.tenant, a.epoch, 0, rep)); err == nil {
				err = sameBytes(fmt.Sprintf("release %d replay vs served", i), got, r.body)
			}
		}
		if !check.record(err) {
			res.fail("replay: %v", err)
		}
	}
	ldpReportLayers(res, reports)
}
