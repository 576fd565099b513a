package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"sightrisk/client"
	"sightrisk/internal/core"
	"sightrisk/internal/dataset"
	"sightrisk/internal/delta"
	"sightrisk/internal/fleet"
	"sightrisk/internal/graph"
)

// Incremental re-estimation over the wire:
//
//	POST /v1/updates                 apply a graph/profile delta batch
//	                                 to a mutable dataset
//	POST /v1/estimates/{id}/revise   re-estimate a finished job against
//	                                 the updated dataset, splicing every
//	                                 pool the updates left untouched
//	GET  /v1/estimates/{id}/stream   NDJSON per-pool report deltas
//
// Updates swap a dataset runtime's frozen snapshot and (copy-on-write)
// profile store under the server mutex; running estimates keep the
// view they resolved, new jobs see the post-batch view. A revision's
// report is byte-identical to a from-scratch submission against the
// updated dataset — the engine's Reuse splice only skips pools whose
// content key proves their inputs unchanged.

// toBatch converts wire updates to engine delta records.
func toBatch(us []client.Update) delta.Batch {
	b := make(delta.Batch, len(us))
	for i, u := range us {
		b[i] = delta.Update{
			Kind:    delta.Kind(u.Kind),
			A:       graph.UserID(u.A),
			B:       graph.UserID(u.B),
			Attr:    u.Attr,
			Value:   u.Value,
			Visible: u.Visible,
		}
	}
	return b
}

// poolDelta renders one finished pool as its wire report delta — the
// same entries AssembleReport will emit for the pool, so a client
// concatenating the stream reconstructs the report's stranger list.
func poolDelta(run *core.OwnerRun, pr core.PoolRun, index, total int) client.PoolDelta {
	d := client.PoolDelta{
		Pool:   pr.Pool.ID(),
		Index:  index,
		Total:  total,
		Status: string(pr.Status),
		Reused: pr.Reused,
	}
	for _, m := range pr.Pool.Members {
		d.Strangers = append(d.Strangers, client.StrangerRisk{
			User:              int64(m),
			Label:             int(pr.Result.Labels[m]),
			OwnerLabeled:      pr.Result.OwnerLabeled[m],
			NetworkSimilarity: run.NSG.Score[m],
			Pool:              pr.Pool.ID(),
			Fallback:          pr.Fallback[m],
		})
	}
	return d
}

// handleUpdates applies a delta batch to a mutable dataset. In cluster
// mode the batch is forwarded to the replica owning UpdatesRequest.
// Owner, so a follow-up revision for that owner (routed identically)
// sees the updated graph.
func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining; retry against a live replica", time.Second)
		return
	}
	var req client.UpdatesRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "malformed request body: "+err.Error(), 0)
		return
	}
	if req.Dataset == "" {
		writeErr(w, http.StatusBadRequest, "bad_request", "dataset is required", 0)
		return
	}
	rt, ok := s.runtimes[req.Dataset]
	if !ok {
		writeErr(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("unknown dataset %q", req.Dataset), 0)
		return
	}
	if len(req.Updates) == 0 {
		writeErr(w, http.StatusBadRequest, "bad_request", "updates must not be empty", 0)
		return
	}
	batch := toBatch(req.Updates)
	if err := batch.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	if s.clustered() && r.Header.Get(ForwardHeader) == "" {
		if node, _ := s.cluster.Owner(req.Owner); node.ID != s.nodeID {
			if s.forwardOwner(w, r, req.Owner, "POST", "/v1/updates", &req) {
				return
			}
		}
	}
	if rt.Graph == nil {
		writeErr(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("dataset %q is snapshot-backed and read-only; updates need a mutable dataset", req.Dataset), 0)
		return
	}
	resp, _, err := s.applyUpdates(req.Dataset, rt, batch)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "internal", err.Error(), 0)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// updWaiter is one queued update request awaiting a drain: its batch,
// a channel closed when the drain carrying it lands, and the drain's
// shared outcome.
type updWaiter struct {
	batch delta.Batch
	done  chan struct{}
	resp  *client.UpdatesResponse
	gen   uint64
	err   error
}

// updQueue is one dataset's same-tick batch queue: pending holds the
// requests that arrived while a drain was in flight, active marks a
// drain leader at work. Guarded by Server.updMu.
type updQueue struct {
	active  bool
	pending []*updWaiter
}

// applyUpdates hands a validated batch to the dataset's drain queue.
// The first arrival becomes the drain leader: it repeatedly takes
// everything pending — its own batch plus whatever queued while the
// previous drain was applying — merges the batches into one
// (delta.Coalesce) and applies that once. High-rate crawler feeds
// therefore cost one graph mutation, one snapshot, one generation bump
// and one dirty-owner invalidation per drain, however many requests
// merged into it. Followers just enqueue and wait; every request
// merged into a drain shares its response, with Merged counting the
// requests. Returns the wire response and the dataset's new
// generation.
func (s *Server) applyUpdates(name string, rt *dataset.Runtime, b delta.Batch) (*client.UpdatesResponse, uint64, error) {
	wtr := &updWaiter{batch: b, done: make(chan struct{})}
	s.updMu.Lock()
	q := s.updQ[name]
	if q == nil {
		q = &updQueue{}
		s.updQ[name] = q
	}
	q.pending = append(q.pending, wtr)
	if q.active {
		s.updMu.Unlock()
		<-wtr.done
		return wtr.resp, wtr.gen, wtr.err
	}
	q.active = true
	for len(q.pending) > 0 {
		drain := q.pending
		q.pending = nil
		s.updMu.Unlock()
		if s.updDrainHook != nil {
			s.updDrainHook(name, len(drain))
		}
		batches := make([]delta.Batch, len(drain))
		for i, dw := range drain {
			batches[i] = dw.batch
		}
		resp, gen, err := s.applyDrain(name, rt, delta.Coalesce(batches), len(drain))
		for _, dw := range drain {
			dw.resp, dw.gen, dw.err = resp, gen, err
			close(dw.done)
		}
		s.updMu.Lock()
	}
	q.active = false
	s.updMu.Unlock()
	return wtr.resp, wtr.gen, wtr.err
}

// applyDrain applies one coalesced drain to the dataset: the live
// graph mutates in place (no running job reads it — they all hold the
// previous frozen snapshot), the profile store is replaced by a
// copy-on-write clone, and a fresh snapshot is swapped in under the
// server mutex together with the bumped update generation. applyMu is
// held across the mutation so readers that need a consistent clone of
// the live graph (/v1/advise) can quiesce it.
func (s *Server) applyDrain(name string, rt *dataset.Runtime, b delta.Batch, merged int) (*client.UpdatesResponse, uint64, error) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	s.mu.Lock()
	store := rt.Profiles
	s.mu.Unlock()
	next, err := b.ApplyCloned(rt.Graph, store)
	if err != nil {
		return nil, 0, err
	}
	snap := rt.Graph.Snapshot()
	owners := make([]graph.UserID, 0, len(rt.Owners))
	for _, rec := range rt.Owners {
		owners = append(owners, rec.ID)
	}
	var dirty []int64
	for _, o := range delta.DirtyOwners(rt.Graph, owners, b) {
		dirty = append(dirty, int64(o))
	}
	s.mu.Lock()
	rt.Snapshot, rt.Profiles = snap, next
	s.dsGen[name]++
	gen := s.dsGen[name]
	s.mu.Unlock()
	s.logf("sightd: dataset %s: applied %d updates from %d request(s) (gen %d, %d dirty owners)", name, len(b), merged, gen, len(dirty))
	return &client.UpdatesResponse{Dataset: name, Applied: len(b), DirtyOwners: dirty, Node: s.nodeID, Merged: merged}, gen, nil
}

// handleRevise re-estimates a finished job as a new job, reusing
// whatever the updates since the prior run left untouched. The
// request's updates (if any) are applied first, exactly like
// POST /v1/updates. Two reuse levels apply:
//
//   - owner level: when the prior run is held in memory, no other
//     update batch landed since it ran, and the request's batch
//     provably cannot reach the owner's 2-hop view, the prior report
//     is served as an immediately-done job — no pipeline work at all;
//   - pool level: otherwise the pipeline re-runs with the prior run
//     spliced in, recomputing only pools whose membership or weight
//     content changed.
func (s *Server) handleRevise(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining; retry against a live replica", time.Second)
		return
	}
	j := s.routeJob(w, r)
	if j == nil {
		return
	}
	var req client.ReviseRequest
	if r.Body != nil {
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			writeErr(w, http.StatusBadRequest, "bad_request", "malformed request body: "+err.Error(), 0)
			return
		}
	}
	if j.req.Dataset == "" {
		writeErr(w, http.StatusBadRequest, "bad_request", "revise requires a dataset-backed estimate", 0)
		return
	}
	if j.currentStatus() != client.StatusDone {
		writeErr(w, http.StatusConflict, "conflict", "estimate has not finished; revise a completed job", 0)
		return
	}
	batch := toBatch(req.Updates)
	if err := batch.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	rt, ok := s.runtimes[j.req.Dataset]
	if !ok {
		writeErr(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("unknown dataset %q", j.req.Dataset), 0)
		return
	}
	prior, priorGen := j.reusable()
	var genNow uint64
	solo := true // our batch (if any) was the only request in its drain
	if len(batch) > 0 {
		if rt.Graph == nil {
			writeErr(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("dataset %q is snapshot-backed and read-only; updates need a mutable dataset", j.req.Dataset), 0)
			return
		}
		resp, gen, err := s.applyUpdates(j.req.Dataset, rt, batch)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "internal", err.Error(), 0)
			return
		}
		genNow, solo = gen, resp.Merged <= 1
	} else {
		s.mu.Lock()
		genNow = s.dsGen[j.req.Dataset]
		s.mu.Unlock()
	}
	// Owner-level fast path: the prior run is current (the only updates
	// since it ran are this request's, if any — a drain that merged
	// other requests' batches disqualifies, since their updates share
	// our generation bump) and the batch cannot reach the owner's 2-hop
	// view.
	expectGen := priorGen
	if len(batch) > 0 {
		expectGen++
	}
	if prior != nil && !prior.Partial && genNow == expectGen && solo && !delta.Affected(rt.Graph, j.owner, batch) {
		j2 := s.allocJob(j.req)
		if j2 == nil {
			writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining; retry against a live replica", time.Second)
			return
		}
		j2.setGen(genNow)
		j2.setLastRun(prior)
		if err := s.persistJob(j2); err != nil {
			s.logf("sightd: persist job %s: %v", j2.id, err)
		}
		st := j.snapshot()
		s.completeJob(j2, st.Report, prior.QueriedCount())
		s.logf("sightd: job %s revised as %s without recompute (no reachable updates)", j.id, j2.id)
		writeJSON(w, http.StatusAccepted, j2.snapshot())
		return
	}
	adm, err := s.sched.Admit(j.req.Tenant)
	if err != nil {
		var over *fleet.OverBudgetError
		if errors.As(err, &over) {
			retry := over.RetryAfter
			if retry <= 0 {
				retry = time.Second
			}
			writeErr(w, http.StatusTooManyRequests, "over_budget",
				fmt.Sprintf("tenant %q over budget: %s", over.Tenant, over.Reason), retry)
			return
		}
		writeErr(w, http.StatusServiceUnavailable, "draining", err.Error(), time.Second)
		return
	}
	j2 := s.allocJob(j.req)
	if j2 == nil {
		adm.Cancel()
		writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining; retry against a live replica", time.Second)
		return
	}
	j2.reuse = prior // set before launch; never mutated afterwards
	if err := s.persistJob(j2); err != nil {
		s.logf("sightd: persist job %s: %v", j2.id, err)
	}
	s.launch(j2, adm, nil)
	writeJSON(w, http.StatusAccepted, j2.snapshot())
}

// handleStream serves the job's per-pool report deltas as NDJSON: one
// line per finished pool (replayed from the start on reconnect), then
// a terminal line with Done set carrying the final status and report
// or error.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.routeJob(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	cursor := 0
	for {
		ch := j.watch() // before reading state, so no change is missed
		ds, terminal := j.deltasSince(cursor)
		for _, d := range ds {
			if err := enc.Encode(d); err != nil {
				return
			}
		}
		cursor += len(ds)
		if len(ds) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			st := j.snapshot()
			enc.Encode(client.PoolDelta{Done: true, JobStatus: st.Status, Report: st.Report, Error: st.Error})
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}
