package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"
)

// ClusterNode names one sightd replica for NewCluster: the node id the
// cluster was configured with and the base URL to reach it.
type ClusterNode struct {
	// ID is the replica's cluster-unique node id.
	ID string `json:"id"`
	// URL is the replica's base URL (scheme + host, no trailing path).
	URL string `json:"url"`
}

// Cluster is a client-side router over a multi-node sightd cluster. It
// keeps one single-shot Client per replica and retries each call across
// replicas: the job's last-known host first (the affinity hint carried
// by EstimateStatus.Node), then the remaining nodes with jittered
// backoff. Unreachable and draining replicas are skipped over; any
// replica can serve any request because the server side forwards to —
// or, after a node death, adopts on — the ring owner. 404 and 429
// responses return immediately: the shared store makes "not found"
// authoritative, and a tenant budget rejection will not improve on a
// different door into the same fleet.
//
// Methods mirror *Client and are safe for concurrent use.
type Cluster struct {
	// Clients holds the per-node clients, keyed by node id. They are
	// created with retries disabled (the cluster layer is the retry
	// policy); callers may tune knobs like Options.Estimate.LongPoll
	// before issuing calls.
	Clients map[string]*Client

	nodes []ClusterNode

	mu       sync.Mutex
	affinity map[string]string // job id → node id last seen hosting it
}

// NewCluster builds a router over the given replicas. At least one
// node with a non-empty id and URL is required.
func NewCluster(nodes []ClusterNode) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, errors.New("client: cluster needs at least one node")
	}
	cl := &Cluster{
		Clients:  make(map[string]*Client, len(nodes)),
		nodes:    append([]ClusterNode(nil), nodes...),
		affinity: map[string]string{},
	}
	for _, n := range nodes {
		if n.ID == "" || n.URL == "" {
			return nil, fmt.Errorf("client: cluster node needs id and url (got %+v)", n)
		}
		if _, dup := cl.Clients[n.ID]; dup {
			return nil, fmt.Errorf("client: duplicate cluster node id %q", n.ID)
		}
		cl.Clients[n.ID] = &Client{BaseURL: n.URL, Options: Options{Retry: RetryOptions{Disabled: true}}}
	}
	return cl, nil
}

// Nodes returns the configured replicas.
func (cl *Cluster) Nodes() []ClusterNode {
	return append([]ClusterNode(nil), cl.nodes...)
}

// noteNode records where a job was last seen hosted, steering future
// calls for it to that replica first.
func (cl *Cluster) noteNode(st *EstimateStatus) {
	if st == nil || st.ID == "" || st.Node == "" {
		return
	}
	cl.mu.Lock()
	cl.affinity[st.ID] = st.Node
	cl.mu.Unlock()
}

// order returns the node ids to try for the job: the affinity node
// first, then every node, twice over — enough for the cluster to
// detect a death and rebalance between our attempts. An affinity hint
// naming a node this router was not configured with (the server's node
// ids need not match the caller's labels) is ignored rather than tried.
func (cl *Cluster) order(jobID string) []string {
	ids := make([]string, 0, 2*len(cl.nodes)+1)
	if jobID != "" {
		cl.mu.Lock()
		aff, ok := cl.affinity[jobID]
		cl.mu.Unlock()
		if ok {
			if _, known := cl.Clients[aff]; known {
				ids = append(ids, aff)
			}
		}
	}
	for cycle := 0; cycle < 2; cycle++ {
		for _, n := range cl.nodes {
			ids = append(ids, n.ID)
		}
	}
	return ids
}

// clusterRetryable reports whether the error is worth trying another
// replica for: transport failures and 503s are; everything else — 404,
// 429, 400, job failures — is a real answer.
func clusterRetryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status == http.StatusServiceUnavailable
	}
	var urlErr *url.Error
	return errors.As(err, &urlErr)
}

// try runs fn against replicas in affinity order until one answers.
func (cl *Cluster) try(ctx context.Context, jobID string, fn func(c *Client) error) error {
	var lastErr error
	for attempt, id := range cl.order(jobID) {
		c := cl.Clients[id]
		if c == nil {
			continue
		}
		err := fn(c)
		if err == nil {
			return nil
		}
		lastErr = err
		if !clusterRetryable(err) {
			return err
		}
		if attempt > 0 {
			wait := backoff(attempt-1, DefaultMaxRetryWait)
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
			t.Stop()
		}
		if ctx.Err() != nil {
			return lastErr
		}
	}
	return lastErr
}

// Submit posts a new estimate to any live replica; the receiving node
// routes it to its ring owner. See Client.Submit.
func (cl *Cluster) Submit(ctx context.Context, req *EstimateRequest) (*EstimateStatus, error) {
	var st *EstimateStatus
	err := cl.try(ctx, "", func(c *Client) error {
		var err error
		st, err = c.Submit(ctx, req)
		return err
	})
	if err != nil {
		return nil, err
	}
	cl.noteNode(st)
	return st, nil
}

// Get fetches a job's status from its last-known host, falling back
// across replicas. See Client.Get.
func (cl *Cluster) Get(ctx context.Context, id string) (*EstimateStatus, error) {
	var st *EstimateStatus
	err := cl.try(ctx, id, func(c *Client) error {
		var err error
		st, err = c.Get(ctx, id)
		return err
	})
	if err != nil {
		return nil, err
	}
	cl.noteNode(st)
	return st, nil
}

// Questions long-polls the job's pending owner questions. See
// Client.Questions.
func (cl *Cluster) Questions(ctx context.Context, id string) (*QuestionsResponse, error) {
	var qr *QuestionsResponse
	err := cl.try(ctx, id, func(c *Client) error {
		var err error
		qr, err = c.Questions(ctx, id)
		return err
	})
	return qr, err
}

// Answer posts owner answers for pending questions. See Client.Answer.
func (cl *Cluster) Answer(ctx context.Context, id string, answers []Answer) (int, error) {
	accepted := 0
	err := cl.try(ctx, id, func(c *Client) error {
		var err error
		accepted, err = c.Answer(ctx, id, answers)
		return err
	})
	return accepted, err
}

// Cancel asks the cluster to stop the job. See Client.Cancel.
func (cl *Cluster) Cancel(ctx context.Context, id string) error {
	return cl.try(ctx, id, func(c *Client) error {
		return c.Cancel(ctx, id)
	})
}

// Wait polls until the job reaches a terminal state, surviving node
// failovers in between. See Client.Wait.
func (cl *Cluster) Wait(ctx context.Context, id string) (*EstimateStatus, error) {
	for {
		st, err := cl.Get(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.Status == StatusDone || st.Status == StatusFailed {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// Run submits a remote-annotator job and drives it to completion
// across the cluster. See Client.Run.
func (cl *Cluster) Run(ctx context.Context, req *EstimateRequest, answer AnswerFunc) (*Report, error) {
	st, err := cl.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	return cl.Drive(ctx, st.ID, answer)
}

// Drive runs the answer loop for an already-submitted job until it is
// terminal, then returns its report. See Client.Drive.
func (cl *Cluster) Drive(ctx context.Context, id string, answer AnswerFunc) (*Report, error) {
	return drive(ctx, cl, id, answer)
}

// Advise evaluates a pending friendship request on any live replica;
// the receiving node forwards it to the ring owner of the request's
// owner, where the prior run is most likely held. The evaluation is
// read-only and deterministic, so a retried call is safe and returns
// the same bytes whichever replica ends up answering. See
// Client.Advise.
func (cl *Cluster) Advise(ctx context.Context, req *AdviseRequest) (*AdviseResponse, error) {
	var ar *AdviseResponse
	err := cl.try(ctx, "", func(c *Client) error {
		var err error
		ar, err = c.Advise(ctx, req)
		return err
	})
	return ar, err
}

// Stats requests a privacy-preserving statistics release on any live
// replica; the receiving node forwards it to the dataset's ring owner,
// which holds the dataset's ε ledger. The release is deterministic for
// a fixed (tenant, dataset, epoch, epsilon, noise) request at an
// unchanged dataset generation, so a retried call is safe and returns
// the same bytes whichever replica ends up answering. See
// Client.Stats.
func (cl *Cluster) Stats(ctx context.Context, req *StatsRequest) (*StatsResponse, error) {
	var sr *StatsResponse
	err := cl.try(ctx, "", func(c *Client) error {
		var err error
		sr, err = c.Stats(ctx, req)
		return err
	})
	return sr, err
}

// Health fetches every replica's health summary, keyed by node id.
// Unreachable replicas map to a nil entry instead of failing the call —
// that is the "dead vs draining" distinction a balancer needs.
func (cl *Cluster) Health(ctx context.Context) map[string]*HealthResponse {
	out := make(map[string]*HealthResponse, len(cl.nodes))
	for _, n := range cl.nodes {
		hr, err := cl.Clients[n.ID].Health(ctx)
		if err != nil {
			out[n.ID] = nil
			continue
		}
		out[n.ID] = hr
	}
	return out
}
