package server

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sightrisk/client"
	"sightrisk/internal/core"
)

// Durability sits behind the pluggable Store (state.go). Per job id the
// store holds the submission record, the per-round checkpoint and the
// terminal outcome; a job with a record but no final outcome did not
// finish and is requeued on recovery (single node) or adopted by the
// ring owner (cluster). The checkpoint stores only owner answers, so a
// resumed run replays them and never re-asks — and, because question
// order is deterministic, finishes byte-identical to an uninterrupted
// run on whichever replica resumes it.

// persistJob durably records a submission (no-op without a store, and
// after Kill — a dead node writes nothing).
func (s *Server) persistJob(j *job) error {
	if s.store == nil || s.isKilled() {
		return nil
	}
	return s.store.PutJob(JobRecord{ID: j.id, Node: s.nodeID, Request: j.req})
}

// persistFinal durably records a terminal outcome; failures are logged
// rather than failing the job (the in-memory result is still served).
func (s *Server) persistFinal(id string, fin FinalRecord) {
	if s.store == nil || s.isKilled() {
		return
	}
	if err := s.store.PutFinal(id, fin); err != nil {
		s.logf("sightd: persist final state of %s: %v", id, err)
	}
}

// completeJob records a finished job's report durably, then publishes
// it. The order matters: a client that sees "done" may rely on the
// outcome surviving a restart.
func (s *Server) completeJob(j *job, rep *client.Report, queries int) {
	s.persistFinal(j.id, FinalRecord{Status: client.StatusDone, Queries: queries, Report: rep})
	j.complete(rep, queries)
}

// failJob records a terminal error durably, then publishes it.
func (s *Server) failJob(j *job, apiErr *client.APIError) {
	s.persistFinal(j.id, FinalRecord{Status: client.StatusFailed, Queries: j.snapshot().Queries, Error: apiErr})
	j.fail(apiErr)
}

// recoverJobs rebuilds job state from the store: finished jobs come
// back queryable (status, report), unfinished ones are requeued with
// their checkpoints so they resume where the previous process stopped.
// In cluster mode only jobs this node currently owns on the ring are
// restored; the rest belong to peers (rebalance adopts them if
// ownership later shifts here). Called from New before the server
// accepts traffic.
func (s *Server) recoverJobs() error {
	ids, err := s.store.Jobs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		rec, err := s.store.GetJob(id)
		if err != nil {
			s.logf("sightd: skip unreadable job record %s: %v", id, err)
			continue
		}
		if s.cluster != nil {
			if node, _ := s.cluster.Owner(rec.Request.Owner); node.ID != s.nodeID {
				continue
			}
		}
		if _, err := s.restoreJob(rec); err != nil {
			return fmt.Errorf("restore %s: %w", id, err)
		}
	}
	return nil
}

// restoreJob materializes a persisted job into the in-memory table:
// terminal outcomes come back queryable, unfinished jobs are admitted
// and relaunched from their checkpoint. Idempotent — an id already in
// the table is returned as-is. This is the shared path behind restart
// recovery and cluster adoption.
func (s *Server) restoreJob(rec JobRecord) (*job, error) {
	s.mu.Lock()
	if j := s.jobs[rec.ID]; j != nil {
		s.mu.Unlock()
		return j, nil
	}
	j := newJob(rec.ID, rec.Request)
	j.node = s.nodeID
	s.jobs[rec.ID] = j
	s.mu.Unlock()
	s.trackID(rec.ID)
	fin, err := s.store.GetFinal(rec.ID)
	switch {
	case err == nil:
		// Finished in a previous process: restore the outcome. The JSONL
		// trace was in-memory in that process and is gone.
		j.mu.Lock()
		j.status = fin.Status
		j.queries = fin.Queries
		j.report = fin.Report
		j.apiErr = fin.Error
		j.mu.Unlock()
	case errors.Is(err, os.ErrNotExist):
		// Unfinished: requeue, resuming from the checkpoint if the
		// previous owner got far enough to write one.
		var resume *core.Checkpoint
		if cp, err := s.store.GetCheckpoint(rec.ID); err == nil {
			resume = cp
		} else if !errors.Is(err, os.ErrNotExist) {
			s.logf("sightd: ignore unreadable checkpoint for %s: %v", rec.ID, err)
		}
		adm, err := s.sched.Admit(rec.Request.Tenant)
		if err != nil {
			j.fail(&client.APIError{Code: "over_budget", Message: fmt.Sprintf("requeue after restart: %v", err)})
		} else {
			s.launch(j, adm, resume)
		}
	default:
		return nil, err
	}
	return j, nil
}

// trackID advances the id counter past a recovered job's id so new
// submissions never collide with persisted ones. In cluster mode only
// this node's own "<node>-e<n>" ids count; peer ids live in peer
// counters.
func (s *Server) trackID(id string) {
	if s.nodeID != "" {
		prefix := s.nodeID + "-"
		if !strings.HasPrefix(id, prefix) {
			return
		}
		id = strings.TrimPrefix(id, prefix)
	}
	n, err := strconv.Atoi(strings.TrimPrefix(id, "e"))
	if err != nil {
		return
	}
	s.mu.Lock()
	if n > s.nextID {
		s.nextID = n
	}
	s.mu.Unlock()
}
