package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	sight "sightrisk"
	"sightrisk/client"
	"sightrisk/internal/dataset"
	"sightrisk/internal/graph"
	"sightrisk/internal/server"
)

// ownerClients is the number of closed-loop owner clients, each its
// own tenant with its own connection.
const ownerClients = 2

// ownerChecks is how many served owners are recomputed in-process.
const ownerChecks = 2

// ownerEstimateTimeout bounds one owner's whole interaction.
const ownerEstimateTimeout = 60 * time.Second

// ownerSetup is a started owner_interactive server.
type ownerSetup struct {
	ds *dataset.Dataset
	fx *fixture
}

// setupOwner generates the medium study and starts a durable sightd
// over it (a fresh state directory under workdir).
func setupOwner(o options, tr *tracer) (*ownerSetup, error) {
	ds, err := mediumStudy()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, "state-")
	if err != nil {
		return nil, err
	}
	cfg := server.Config{Datasets: map[string]*dataset.Dataset{mediumName: ds}, Workers: serverWorkers}
	if tr != nil {
		st, err := server.NewDirStore(dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		cfg.Store = timedStore{DirStore: st, t: tr}
	} else {
		cfg.StateDir = dir
	}
	fx, err := startServer(cfg, tr, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &ownerSetup{ds: ds, fx: fx}, nil
}

// ownerPassSeconds converts --seconds into whole passes over the
// study; a pass takes 8 to 12 s on the reference host. Fixing the work
// rather than the time keeps every run's mix of owners, and of cold and
// warm weight-cache passes, the same on a fast host and a slow one.
const ownerPassSeconds = 10

// ownerPasses is the number of passes a run of the given length serves.
func ownerPasses(seconds time.Duration) int {
	return max(1, int(seconds.Seconds()/ownerPassSeconds+0.5))
}

// ownerQueue hands owners to the clients in whole passes over the
// study, each pass a fresh seed-drawn permutation, so every run serves
// each owner the same number of times whatever order the seed picks.
type ownerQueue struct {
	mu     sync.Mutex
	rng    *rand.Rand
	owners []dataset.OwnerRecord
	passes int
	pass   []int
	next   int
}

// take returns the next owner to serve and its position in the run.
func (q *ownerQueue) take() (dataset.OwnerRecord, int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.next == q.passes*len(q.owners) {
		return dataset.OwnerRecord{}, 0, false
	}
	i := q.next % len(q.owners)
	if i == 0 {
		q.pass = q.rng.Perm(len(q.owners))
	}
	q.next++
	return q.owners[q.pass[i]], q.next - 1, true
}

// served is one served report.
type served struct {
	owner graph.UserID
	body  []byte
	pool  int
}

// ownerClient is one closed-loop owner: it submits a remote-annotator
// estimate, answers every long-polled question from the study's stored
// labels and, when the job ends, fetches the report.
type ownerClient struct {
	c      *client.Client
	tenant string
	trace  bool

	tally      tally
	estimates  []float64 // submit to terminal response, ms
	estTraced  []bool
	waits      []float64 // submit or answer sent to next question batch, ms
	waitTraced []bool
	reports    []served
	tracedJobs map[string]bool
	// redeliveries counts polls that returned only answered questions.
	redeliveries int
	busy         time.Duration
	errs         []string
}

// loop serves owners until the queue stops.
func (oc *ownerClient) loop(ctx context.Context, q *ownerQueue) {
	start := time.Now()
	for {
		rec, idx, ok := q.take()
		if !ok {
			break
		}
		// A traced run traces every other pass, so the traced and
		// untraced estimates cover the same owners.
		if err := oc.estimate(ctx, rec, oc.trace && (idx/len(q.owners))%2 == 1); err != nil {
			oc.errs = append(oc.errs, fmt.Sprintf("owner %d: %v", rec.ID, err))
		}
	}
	oc.busy = time.Since(start)
}

// estimate runs one owner's interaction. Completion is observed by
// wake-up: the questions long-poll returns as soon as the job ends.
func (oc *ownerClient) estimate(ctx context.Context, rec dataset.OwnerRecord, on bool) error {
	ctx, cancel := context.WithTimeout(traced(ctx, on), ownerEstimateTimeout)
	defer cancel()
	t0 := time.Now()
	st, err := oc.c.Submit(ctx, &client.EstimateRequest{Tenant: oc.tenant, Dataset: mediumName, Owner: int64(rec.ID)})
	if !oc.tally.record(err) {
		return err
	}
	if on {
		oc.tracedJobs[st.ID] = true
	}
	abandon := func(err error) error {
		// Free the server's worker: a job left waiting for answers
		// would hold it until the run ends.
		cctx, ccancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer ccancel()
		oc.tally.record(oc.c.Cancel(cctx, st.ID))
		return err
	}
	last := t0
	answered := 0 // highest question Seq answered so far
	for {
		qr, err := oc.c.Questions(ctx, st.ID)
		if !oc.tally.record(err) {
			return abandon(err)
		}
		if qr.Status == client.StatusDone || qr.Status == client.StatusFailed {
			break
		}
		// A question stays pending until the job consumes its answer,
		// so a poll sent right after answering can return it again.
		// Only a question not yet answered ends a wait; a redelivery
		// is polled past.
		var answers []client.Answer
		top := answered
		for _, q := range qr.Questions {
			if q.Seq > answered {
				answers = append(answers, client.Answer{Stranger: q.Stranger, Label: wireLabel(rec, q.Stranger)})
				top = max(top, q.Seq)
			}
		}
		if len(answers) == 0 {
			if len(qr.Questions) > 0 {
				oc.redeliveries++
			}
			continue
		}
		oc.waits = append(oc.waits, ms(time.Since(last)))
		oc.waitTraced = append(oc.waitTraced, on)
		answered = top
		last = time.Now()
		if _, err := oc.c.Answer(ctx, st.ID, answers); !oc.tally.record(err) {
			return abandon(err)
		}
	}
	fin, err := oc.c.Get(ctx, st.ID)
	if err == nil && fin.Status != client.StatusDone {
		err = fmt.Errorf("job %s ended %s: %v", st.ID, fin.Status, fin.Error)
	}
	if !oc.tally.record(err) {
		return err
	}
	oc.estimates = append(oc.estimates, ms(time.Since(t0)))
	oc.estTraced = append(oc.estTraced, on)
	body, err := json.Marshal(fin.Report)
	if err != nil {
		return err
	}
	oc.reports = append(oc.reports, served{owner: rec.ID, body: body, pool: largestPool(fin.Report)})
	return nil
}

// runOwnerInteractive is the paper's own interaction: two owners at a
// time answer the system's questions over the wire while the harmonic
// classifier labels their strangers.
func runOwnerInteractive(ctx context.Context, o options) (*result, error) {
	res := newResult(o)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var su setupLog
	var s *ownerSetup
	if err := su.run(func() (err error) { s, err = setupOwner(o, tr); return err }); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	describe(res, mediumName, s.ds)

	q := &ownerQueue{rng: rand.New(rand.NewSource(o.seed)), owners: s.ds.Owners, passes: ownerPasses(o.seconds)}
	res.conditions["owner_passes"] = q.passes
	clients := make([]*ownerClient, ownerClients)
	var wg sync.WaitGroup
	for i := range clients {
		clients[i] = &ownerClient{c: s.fx.client(), tenant: fmt.Sprintf("owner-%d", i), trace: o.trace, tracedJobs: map[string]bool{}}
		wg.Add(1)
		go func(oc *ownerClient) {
			defer wg.Done()
			oc.loop(ctx, q)
		}(clients[i])
	}
	wg.Wait()
	rss := peakRSSMB()

	var run tally
	var ownersPerS float64
	var estimates, waitVals []float64
	var estSplit, waitSplit [2][]float64 // [untraced, traced]
	var reports []served
	redeliveries := 0
	tracedJobs := map[string]bool{}
	for _, oc := range clients {
		run.add(oc.tally)
		for _, e := range oc.errs {
			res.fail("run: %s", e)
		}
		estimates = append(estimates, oc.estimates...)
		waitVals = append(waitVals, oc.waits...)
		for i, v := range oc.estimates {
			estSplit[b2i(oc.estTraced[i])] = append(estSplit[b2i(oc.estTraced[i])], v)
		}
		for i, v := range oc.waits {
			waitSplit[b2i(oc.waitTraced[i])] = append(waitSplit[b2i(oc.waitTraced[i])], v)
		}
		reports = append(reports, oc.reports...)
		redeliveries += oc.redeliveries
		for id := range oc.tracedJobs {
			tracedJobs[id] = true
		}
		if oc.busy > 0 {
			ownersPerS += float64(len(oc.estimates)) / oc.busy.Seconds()
		}
	}
	res.addPhase("run", run)

	// Checks, outside the timed window: every repeat of an owner is
	// byte-identical to its first served report, and a seed-chosen
	// sample of owners matches sight.EstimateRisk in-process.
	var check tally
	first := map[graph.UserID][]byte{}
	pool := 0
	for _, r := range reports {
		if r.pool > pool {
			pool = r.pool
		}
		if want, ok := first[r.owner]; ok {
			if err := sameBytes(fmt.Sprintf("owner %d repeat", r.owner), r.body, want); !check.record(err) {
				res.fail("check: %v", err)
			}
			continue
		}
		first[r.owner] = r.body
	}
	sample := sampleOwners(s.ds, first, ownerChecks, o.seed)
	net := sight.WrapNetwork(s.ds.Graph, s.ds.ProfileStore())
	for _, rec := range sample {
		want, err := referenceReport(ctx, net, rec)
		if err == nil {
			err = sameBytes(fmt.Sprintf("owner %d vs sight.EstimateRisk", rec.ID), first[rec.ID], want)
		}
		if !check.record(err) {
			res.fail("check: %v", err)
		}
	}
	if o.trace {
		replayOwners(ctx, res, &check, s, sample, first, tr, tracedJobs, len(estSplit[1]))
		res.layers["trace.step_overhead_ms"] = mean(waitSplit[1]) - mean(waitSplit[0])
		res.layers["trace.p50_overhead_ms"] = overhead(estSplit)
	}
	res.addPhase("check", check)
	if err := s.fx.stop(); !su.record(err) {
		res.fail("teardown: %v", err)
	}
	err := su.repeat(res, func() (*fixture, error) {
		s, err := setupOwner(o, nil)
		if err != nil {
			return nil, err
		}
		return s.fx, nil
	})
	if err != nil {
		return nil, err
	}
	res.conditions["largest_pool"] = pool
	res.conditions["question_redeliveries"] = redeliveries

	res.figures = append(res.figures,
		latencyFigure("estimate_p50_ms", estimates, 50, "p50_ms"),
		latencyFigure("question_wait_p50_ms", waitVals, 50, ""),
		figure{name: "question_wait_mean_ms", value: mean(waitVals), unit: "ms", n: len(waitVals), slot: "step_ms"},
		latencyFigure("question_wait_p99_ms", waitVals, 99, "tail_ms"),
		figure{name: "owners_per_s", value: ownersPerS, unit: "1/s", n: len(estimates), slot: "ops_per_s"},
	)
	su.finish(res, rss)
	return res, nil
}

// sampleOwners draws up to n distinct served owners, seed-chosen.
func sampleOwners(ds *dataset.Dataset, servedOwners map[graph.UserID][]byte, n int, seed int64) []dataset.OwnerRecord {
	var pool []dataset.OwnerRecord
	for _, rec := range ds.Owners {
		if _, ok := servedOwners[rec.ID]; ok {
			pool = append(pool, rec)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > n {
		pool = pool[:n]
	}
	return pool
}

// b2i maps false to 0 and true to 1.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
