package server

import (
	"context"
	"sync"

	"sightrisk/client"
	"sightrisk/internal/active"
	"sightrisk/internal/core"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/obs"
)

// job is one estimate's server-side state. Its mutex guards every
// mutable field; state changes signal watchers (long-pollers, the wire
// annotator) by closing and replacing notify.
type job struct {
	id     string
	node   string // cluster node currently hosting the job ("" single-node)
	tenant string
	owner  graph.UserID
	req    client.EstimateRequest // normalized submission, as persisted

	mu     sync.Mutex
	notify chan struct{}

	status  string
	queries int
	report  *client.Report
	apiErr  *client.APIError
	trace   *obs.Log

	cancel       context.CancelFunc // cancels the run; set at launch
	userCanceled bool               // DELETE arrived (vs. server drain)

	// Wire annotator state: at most one question is pending at a time
	// (the engine serializes owner queries), but pending is a slice so
	// redelivered long-polls always see the full outstanding set.
	seq     int
	pending []client.Question
	answers map[int64]label.Label

	// Incremental re-estimation state (in-memory only — a restarted
	// server revises with a full recompute, which is still correct):
	// lastRun is the finished engine run a later revision can splice
	// pools from; reuse is the prior run this job revises against;
	// gen is the dataset update generation the run resolved at; deltas
	// accumulates the per-pool report deltas the stream endpoint serves.
	lastRun *core.OwnerRun
	reuse   *core.OwnerRun
	gen     uint64
	deltas  []client.PoolDelta
}

func newJob(id string, req client.EstimateRequest) *job {
	return &job{
		id:      id,
		tenant:  req.Tenant,
		owner:   graph.UserID(req.Owner),
		req:     req,
		notify:  make(chan struct{}),
		status:  client.StatusQueued,
		trace:   obs.NewLog(),
		answers: map[int64]label.Label{},
	}
}

// signalLocked wakes every watcher. Callers hold mu.
func (j *job) signalLocked() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// watch returns the channel that closes on the next state change.
func (j *job) watch() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.notify
}

// snapshot renders the job's current wire status.
func (j *job) snapshot() client.EstimateStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return client.EstimateStatus{
		ID:      j.id,
		Node:    j.node,
		Status:  j.status,
		Tenant:  j.tenant,
		Owner:   int64(j.owner),
		Queries: j.queries,
		Report:  j.report,
		Error:   j.apiErr,
	}
}

func (j *job) currentStatus() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

func (j *job) terminal() bool {
	st := j.currentStatus()
	return st == client.StatusDone || st == client.StatusFailed
}

// setCancel installs the run's cancel function. A DELETE that arrived
// before the job goroutine got here has nothing to call yet, so the
// run is canceled on the spot.
func (j *job) setCancel(cancel context.CancelFunc) {
	j.mu.Lock()
	j.cancel = cancel
	canceled := j.userCanceled
	j.mu.Unlock()
	if canceled {
		cancel()
	}
}

// requestCancel implements DELETE: it marks the cancellation as
// client-initiated (so the partial result is persisted, unlike a
// server drain) and cancels the run.
func (j *job) requestCancel() {
	j.mu.Lock()
	j.userCanceled = true
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func (j *job) wasUserCanceled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.userCanceled
}

// markRunning flips queued → running (called once the scheduler hands
// the job a worker slot).
func (j *job) markRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status == client.StatusQueued {
		j.status = client.StatusRunning
		j.signalLocked()
	}
}

// complete records the final report and wakes every watcher.
func (j *job) complete(rep *client.Report, queries int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = client.StatusDone
	j.report = rep
	j.queries = queries
	j.pending = nil
	j.signalLocked()
}

// fail records a terminal error.
func (j *job) fail(apiErr *client.APIError) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = client.StatusFailed
	j.apiErr = apiErr
	j.pending = nil
	j.signalLocked()
}

// park returns an interrupted-by-drain job to the queued state: its
// checkpoint survives on disk and a restarted server will requeue and
// resume it, so nothing terminal is recorded.
func (j *job) park() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = client.StatusQueued
	j.pending = nil
	j.signalLocked()
}

// questions returns the currently pending owner questions.
func (j *job) questions() []client.Question {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]client.Question, len(j.pending))
	copy(out, j.pending)
	return out
}

// acceptAnswers stores answers that match pending questions and wakes
// the wire annotator. Answers for strangers without a pending question
// are ignored (long-poll redelivery makes duplicates routine).
func (j *job) acceptAnswers(answers []client.Answer) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	accepted := 0
	for _, a := range answers {
		for _, q := range j.pending {
			if q.Stranger == a.Stranger {
				j.answers[a.Stranger] = label.Label(a.Label)
				accepted++
				break
			}
		}
	}
	if accepted > 0 {
		j.signalLocked()
	}
	return accepted
}

// setGen records the dataset update generation the run resolved at.
func (j *job) setGen(gen uint64) {
	j.mu.Lock()
	j.gen = gen
	j.mu.Unlock()
}

// reusable returns the finished run a revision can splice pools from
// and the update generation it was computed at. Nil until the job
// completed in this process (recovered jobs revise from scratch).
func (j *job) reusable() (*core.OwnerRun, uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastRun, j.gen
}

// setLastRun retains the finished engine run for later revisions.
func (j *job) setLastRun(run *core.OwnerRun) {
	j.mu.Lock()
	j.lastRun = run
	j.mu.Unlock()
}

// reuseRun returns the prior run this job revises against (nil for
// from-scratch jobs).
func (j *job) reuseRun() *core.OwnerRun {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.reuse
}

// addPoolDelta appends one per-pool report delta and wakes stream
// watchers. Called from the engine's OnPool hook, in pool order.
func (j *job) addPoolDelta(d client.PoolDelta) {
	j.mu.Lock()
	d.Seq = len(j.deltas) + 1
	j.deltas = append(j.deltas, d)
	j.signalLocked()
	j.mu.Unlock()
}

// deltasSince returns the pool deltas past the cursor plus whether the
// job is terminal (the stream's stop condition).
func (j *job) deltasSince(cursor int) ([]client.PoolDelta, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []client.PoolDelta
	if cursor < len(j.deltas) {
		out = append(out, j.deltas[cursor:]...)
	}
	return out, j.status == client.StatusDone || j.status == client.StatusFailed
}

// countQuery bumps the live owner-label spend shown by GET status.
func (j *job) countQuery() {
	j.mu.Lock()
	j.queries++
	j.mu.Unlock()
}

// wireAnnotator bridges the engine's FallibleAnnotator contract to the
// HTTP question/answer loop: each owner query becomes a pending
// question surfaced by the long-poll endpoint, and the call blocks
// until a matching answer is posted (or ctx ends — the engine then
// degrades the run per its usual interruption contract).
type wireAnnotator struct{ j *job }

// LabelStranger implements active.FallibleAnnotator.
func (w wireAnnotator) LabelStranger(ctx context.Context, s graph.UserID) (label.Label, error) {
	j := w.j
	j.mu.Lock()
	j.seq++
	j.pending = append(j.pending, client.Question{Seq: j.seq, Stranger: int64(s)})
	j.signalLocked()
	for {
		if lab, ok := j.answers[int64(s)]; ok {
			delete(j.answers, int64(s))
			j.removePendingLocked(int64(s))
			j.queries++
			j.signalLocked()
			j.mu.Unlock()
			return lab, nil
		}
		ch := j.notify
		j.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			j.mu.Lock()
			j.removePendingLocked(int64(s))
			j.signalLocked()
			j.mu.Unlock()
			return 0, ctx.Err()
		}
		j.mu.Lock()
	}
}

// removePendingLocked drops the stranger's pending question. Callers
// hold mu.
func (j *job) removePendingLocked(stranger int64) {
	for i, q := range j.pending {
		if q.Stranger == stranger {
			j.pending = append(j.pending[:i], j.pending[i+1:]...)
			return
		}
	}
}

// countingAnnotator wraps a server-side annotator so the live status
// endpoint can report owner-label spend while the job runs.
type countingAnnotator struct {
	inner active.FallibleAnnotator
	j     *job
}

// LabelStranger implements active.FallibleAnnotator.
func (c countingAnnotator) LabelStranger(ctx context.Context, s graph.UserID) (label.Label, error) {
	lab, err := c.inner.LabelStranger(ctx, s)
	if err == nil {
		c.j.countQuery()
	}
	return lab, err
}
