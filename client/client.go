package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// Retry defaults used when the corresponding Client fields are zero.
const (
	// DefaultMaxRetries is how many times a failed call is retried.
	DefaultMaxRetries = 3
	// DefaultMaxRetryWait caps the wait before any single retry; a
	// server-sent Retry-After beyond it fails fast instead of blocking
	// the caller.
	DefaultMaxRetryWait = 5 * time.Second
)

// retryBackoffBase is the first retry's backoff when the server sent
// no Retry-After; later attempts double it (jittered, capped at 1s).
const retryBackoffBase = 50 * time.Millisecond

// EstimateOptions groups the knobs of the estimate/question loop.
type EstimateOptions struct {
	// LongPoll is the server-side wait requested by Questions;
	// DefaultLongPoll when zero.
	LongPoll time.Duration
}

// RetryOptions groups the client's automatic retry policy.
type RetryOptions struct {
	// Disabled turns automatic retry off: every call maps to exactly
	// one HTTP request and the first error is returned as-is. Use it
	// when the caller runs its own retry policy (client.Cluster does).
	Disabled bool
	// MaxAttempts bounds the retry attempts after the initial request;
	// DefaultMaxRetries when zero.
	MaxAttempts int
	// MaxWait caps the wait before any single retry; DefaultMaxRetryWait
	// when zero. A server retry hint above the cap fails fast,
	// returning the server's error.
	MaxWait time.Duration
}

// AdviseOptions groups the knobs of the synchronous advise call.
type AdviseOptions struct {
	// Timeout bounds one Advise call (the server evaluates the
	// counterfactual inline, so a cold call costs a pipeline run);
	// zero leaves the caller's context in charge.
	Timeout time.Duration
}

// StatsOptions groups the knobs of the synchronous stats call.
type StatsOptions struct {
	// Timeout bounds one Stats call (the first release for a dataset
	// generation builds the estimator, which enumerates triangles);
	// zero leaves the caller's context in charge.
	Timeout time.Duration
}

// Options groups every client knob into per-concern sub-structs,
// mirroring the library's sight.Options shape.
type Options struct {
	// Estimate holds the estimate-loop knobs.
	Estimate EstimateOptions
	// Retry holds the automatic retry policy.
	Retry RetryOptions
	// Advise holds the advise-call knobs.
	Advise AdviseOptions
	// Stats holds the stats-call knobs.
	Stats StatsOptions
}

// Client is a typed HTTP client for a sightd server. The zero value is
// not usable; construct with New. Methods are safe for concurrent use.
//
// Calls automatically retry with context-aware jittered backoff: 429
// and 503 responses honor the server's retry hint (failing fast when
// it exceeds Options.Retry.MaxWait), and transport-level failures
// retry for idempotent methods (GET, DELETE) only — a submission that
// may have been accepted is never replayed. Set Options.Retry.Disabled
// to opt out.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8321".
	BaseURL string
	// HTTPClient issues the requests; http.DefaultClient when nil.
	// Long-poll calls need a generous (or zero) Timeout.
	HTTPClient *http.Client
	// Options groups the per-call knobs. A zero-value knob falls back
	// to the matching deprecated flat field below, then to the default —
	// so both old and new callers keep working unchanged.
	Options Options

	// LongPoll is the questions long-poll wait.
	//
	// Deprecated: use Options.Estimate.LongPoll.
	LongPoll time.Duration
	// NoRetry disables automatic retry.
	//
	// Deprecated: use Options.Retry.Disabled.
	NoRetry bool
	// MaxRetries bounds the retry attempts.
	//
	// Deprecated: use Options.Retry.MaxAttempts.
	MaxRetries int
	// MaxRetryWait caps the wait before any single retry.
	//
	// Deprecated: use Options.Retry.MaxWait.
	MaxRetryWait time.Duration
}

// longPoll resolves the effective questions long-poll wait.
func (c *Client) longPoll() time.Duration {
	if c.Options.Estimate.LongPoll > 0 {
		return c.Options.Estimate.LongPoll
	}
	if c.LongPoll > 0 {
		return c.LongPoll
	}
	return DefaultLongPoll
}

// retryPolicy resolves the effective retry policy, folding the
// deprecated flat fields under the grouped options.
func (c *Client) retryPolicy() (maxRetries int, maxWait time.Duration) {
	maxRetries = c.Options.Retry.MaxAttempts
	if maxRetries <= 0 {
		maxRetries = c.MaxRetries
	}
	if maxRetries <= 0 {
		maxRetries = DefaultMaxRetries
	}
	if c.Options.Retry.Disabled || c.NoRetry {
		maxRetries = 0
	}
	maxWait = c.Options.Retry.MaxWait
	if maxWait <= 0 {
		maxWait = c.MaxRetryWait
	}
	if maxWait <= 0 {
		maxWait = DefaultMaxRetryWait
	}
	return maxRetries, maxWait
}

// New returns a client for the server at baseURL (scheme + host, no
// trailing path).
func New(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
}

// do issues one JSON call with the client's retry policy. A nil in
// sends no body; a nil out discards the response body. Non-2xx
// responses decode the error envelope into *APIError.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
		body = b
	}
	maxRetries, maxWait := c.retryPolicy()
	for attempt := 0; ; attempt++ {
		err := c.doOnce(ctx, method, path, body, in != nil, out)
		if err == nil {
			return nil
		}
		if attempt >= maxRetries {
			return err
		}
		wait, retryable := retryWait(method, err, attempt, maxWait)
		if !retryable {
			return err
		}
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
		t.Stop()
	}
}

// doOnce issues one JSON round trip.
func (c *Client) doOnce(ctx context.Context, method, path string, body []byte, hasBody bool, out any) error {
	var rd io.Reader
	if hasBody {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if raw, ok := out.(*[]byte); ok {
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Errorf("client: read response: %w", err)
		}
		*raw = b
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode response: %w", err)
	}
	return nil
}

// retryWait decides whether the error is worth retrying and how long
// to wait first. 429/503 responses are retryable, preferring the
// server's retry hint (fail fast when it exceeds maxWait); transport
// errors are retryable for idempotent methods only.
func retryWait(method string, err error, attempt int, maxWait time.Duration) (time.Duration, bool) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return 0, false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		if apiErr.Status != http.StatusTooManyRequests && apiErr.Status != http.StatusServiceUnavailable {
			return 0, false
		}
		if wait := apiErr.RetryDelay(); wait > 0 {
			if wait > maxWait {
				// Waiting that long inline would stall the caller; let it
				// see the budget error and decide.
				return 0, false
			}
			return wait, true
		}
		return backoff(attempt, maxWait), true
	}
	var urlErr *url.Error
	if errors.As(err, &urlErr) {
		// The connection failed or dropped. Only idempotent calls retry:
		// a POST may have been applied before the failure.
		if method == http.MethodGet || method == http.MethodDelete {
			return backoff(attempt, maxWait), true
		}
	}
	return 0, false
}

// backoff returns the jittered exponential backoff for the attempt
// (0-based): base 50ms doubling per attempt, plus up to 50% jitter,
// capped at 1s and maxWait.
func backoff(attempt int, maxWait time.Duration) time.Duration {
	if attempt > 4 {
		attempt = 4
	}
	d := retryBackoffBase << uint(attempt)
	d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	if d > time.Second {
		d = time.Second
	}
	if d > maxWait {
		d = maxWait
	}
	return d
}

// decodeError turns a non-2xx response into an *APIError, synthesizing
// one when the body is not a structured envelope.
func decodeError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var env errorEnvelope
	if err := json.Unmarshal(b, &env); err == nil && env.Error != nil {
		env.Error.Status = resp.StatusCode
		if env.Error.RetryAfterMillis == 0 && env.Error.RetryAfter == 0 {
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
				env.Error.RetryAfter = ra
			}
		}
		// Keep both retry fields coherent whichever one the server (or
		// the header fallback) filled.
		if env.Error.RetryAfterMillis == 0 && env.Error.RetryAfter > 0 {
			env.Error.RetryAfterMillis = int64(env.Error.RetryAfter) * 1000
		} else if env.Error.RetryAfter == 0 && env.Error.RetryAfterMillis > 0 {
			env.Error.RetryAfter = int((env.Error.RetryAfterMillis + 999) / 1000)
		}
		return env.Error
	}
	return &APIError{
		Code:    "http_" + strconv.Itoa(resp.StatusCode),
		Message: fmt.Sprintf("%s: %s", resp.Status, bytes.TrimSpace(b)),
		Status:  resp.StatusCode,
	}
}

// Submit posts a new estimate job and returns its accepted status
// (StatusQueued or StatusRunning). Rejections surface as *APIError:
// 400 for malformed requests, 429 when the tenant is over budget
// (with RetryAfter when waiting can help), 503 while draining.
func (c *Client) Submit(ctx context.Context, req *EstimateRequest) (*EstimateStatus, error) {
	var st EstimateStatus
	if err := c.do(ctx, http.MethodPost, "/v1/estimates", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Get fetches a job's current status (and its report once done).
func (c *Client) Get(ctx context.Context, id string) (*EstimateStatus, error) {
	var st EstimateStatus
	if err := c.do(ctx, http.MethodGet, "/v1/estimates/"+url.PathEscape(id), nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Questions long-polls the job's pending owner questions. The call
// returns as soon as at least one question is pending, the job reaches
// a terminal state, or the server-side wait (LongPoll) elapses —
// whichever comes first. An empty Questions slice with a non-terminal
// Status means "nothing yet, poll again".
func (c *Client) Questions(ctx context.Context, id string) (*QuestionsResponse, error) {
	path := "/v1/estimates/" + url.PathEscape(id) + "/questions?wait_ms=" +
		strconv.FormatInt(c.longPoll().Milliseconds(), 10)
	var qr QuestionsResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &qr); err != nil {
		return nil, err
	}
	return &qr, nil
}

// Answer posts owner answers for pending questions and returns how
// many were accepted (answers for strangers without a pending question
// are ignored, not errors — long-poll redelivery makes duplicates
// routine).
func (c *Client) Answer(ctx context.Context, id string, answers []Answer) (int, error) {
	var ar AnswersResponse
	err := c.do(ctx, http.MethodPost, "/v1/estimates/"+url.PathEscape(id)+"/answers",
		&AnswersRequest{Answers: answers}, &ar)
	if err != nil {
		return 0, err
	}
	return ar.Accepted, nil
}

// Trace downloads the job's JSONL run trace (one obs event per line).
func (c *Client) Trace(ctx context.Context, id string) ([]byte, error) {
	var raw []byte
	if err := c.do(ctx, http.MethodGet, "/v1/estimates/"+url.PathEscape(id)+"/trace", nil, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// Cancel asks the server to stop the job. The run degrades gracefully:
// the job still completes with a partial report rather than vanishing.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/estimates/"+url.PathEscape(id), nil, nil)
}

// Health fetches the server's health summary.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	var hr HealthResponse
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &hr); err != nil {
		return nil, err
	}
	return &hr, nil
}

// Wait polls until the job reaches a terminal state and returns the
// final status. It is the completion path for stored-annotator jobs;
// remote-annotator jobs normally finish through Run instead.
func (c *Client) Wait(ctx context.Context, id string) (*EstimateStatus, error) {
	for {
		st, err := c.Get(ctx, id)
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

// Updates applies a batch of graph/profile updates to a server-side
// dataset (POST /v1/updates). The response lists the dataset's dirty
// owners — the standing estimates the batch may have invalidated. The
// call is not transport-retried (POST semantics); over-budget and
// draining responses still back off per the retry policy.
func (c *Client) Updates(ctx context.Context, req *UpdatesRequest) (*UpdatesResponse, error) {
	var ur UpdatesResponse
	if err := c.do(ctx, http.MethodPost, "/v1/updates", req, &ur); err != nil {
		return nil, err
	}
	return &ur, nil
}

// Revise submits an incremental re-estimation of a finished job
// (POST /v1/estimates/{id}/revise): the request's updates (if any) are
// applied to the job's dataset, then the estimate re-runs reusing
// every pool the updates left untouched. The result is a new job whose
// final report is byte-identical to a from-scratch submission against
// the updated dataset. Drive/Wait/StreamDeltas the returned job as
// usual.
func (c *Client) Revise(ctx context.Context, id string, req *ReviseRequest) (*EstimateStatus, error) {
	if req == nil {
		req = &ReviseRequest{}
	}
	var st EstimateStatus
	err := c.do(ctx, http.MethodPost, "/v1/estimates/"+url.PathEscape(id)+"/revise", req, &st)
	if err != nil {
		return nil, err
	}
	return &st, nil
}

// Advise evaluates a pending friendship request (POST /v1/advise): the
// server scores the counterfactual graph with the candidate edge added
// against the owner's current estimate and returns the per-item
// exposure delta plus an accept/review/decline verdict. The call is
// synchronous — a cold call (no prior run held server-side) costs a
// full pipeline run; Options.Advise.Timeout bounds it.
func (c *Client) Advise(ctx context.Context, req *AdviseRequest) (*AdviseResponse, error) {
	if t := c.Options.Advise.Timeout; t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	var ar AdviseResponse
	if err := c.do(ctx, http.MethodPost, "/v1/advise", req, &ar); err != nil {
		return nil, err
	}
	return &ar, nil
}

// Stats requests one privacy-preserving statistics release
// (POST /v1/stats): aggregate graph and visibility statistics under
// edge-level local differential privacy with visibility-aware noise
// (docs/ANALYTICS.md). Repeating a call with the same (tenant,
// dataset, epoch) returns byte-identical bytes and spends no extra
// budget; a new epoch draws fresh noise and debits the tenant ledger
// (6·epsilon per release, 429 with a retry hint when exhausted).
func (c *Client) Stats(ctx context.Context, req *StatsRequest) (*StatsResponse, error) {
	if t := c.Options.Stats.Timeout; t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	var sr StatsResponse
	if err := c.do(ctx, http.MethodPost, "/v1/stats", req, &sr); err != nil {
		return nil, err
	}
	return &sr, nil
}

// StreamDeltas consumes the job's NDJSON per-pool delta stream
// (GET /v1/estimates/{id}/stream), calling fn for every pool delta as
// it arrives — including pools finished before the call — and
// returning the terminal line (Done set, with the job's final status
// and report or error). A nil fn just waits for the terminal line.
// The stream is served from job state, so reconnecting replays every
// delta from the start.
func (c *Client) StreamDeltas(ctx context.Context, id string, fn func(PoolDelta) error) (*PoolDelta, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/v1/estimates/"+url.PathEscape(id)+"/stream", nil)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, decodeError(resp)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var d PoolDelta
		if err := dec.Decode(&d); err != nil {
			if errors.Is(err, io.EOF) {
				return nil, fmt.Errorf("client: delta stream ended without a terminal line")
			}
			return nil, fmt.Errorf("client: decode delta stream: %w", err)
		}
		if d.Done {
			return &d, nil
		}
		if fn != nil {
			if err := fn(d); err != nil {
				return nil, err
			}
		}
	}
}

// AnswerFunc supplies the owner's answer for one stranger, using the
// wire label encoding (1 not risky, 2 risky, 3 very risky). It is the
// client-side analogue of sight.Annotator; errors abort Run.
type AnswerFunc func(stranger int64) (int, error)

// Run drives a remote-annotator job to completion: it submits the
// request, long-polls questions, answers each through answer, and
// returns the final report. This is the whole paper interaction — the
// system asks the owner about a few strangers per round and learns the
// rest — carried over the wire.
func (c *Client) Run(ctx context.Context, req *EstimateRequest, answer AnswerFunc) (*Report, error) {
	st, err := c.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	return c.Drive(ctx, st.ID, answer)
}

// Drive runs the answer loop for an already-submitted job until it
// reaches a terminal state, then returns its report. A failed job
// returns its *APIError.
func (c *Client) Drive(ctx context.Context, id string, answer AnswerFunc) (*Report, error) {
	return drive(ctx, c, id, answer)
}

// jobAPI is the part of the estimate API the answer loop needs; both
// *Client and *Cluster provide it.
type jobAPI interface {
	Questions(ctx context.Context, id string) (*QuestionsResponse, error)
	Answer(ctx context.Context, id string, answers []Answer) (int, error)
	Get(ctx context.Context, id string) (*EstimateStatus, error)
}

// drive is the answer loop behind Client.Drive and Cluster.Drive.
func drive(ctx context.Context, api jobAPI, id string, answer AnswerFunc) (*Report, error) {
	for {
		qr, err := api.Questions(ctx, id)
		if err != nil {
			return nil, err
		}
		if qr.Status == StatusDone || qr.Status == StatusFailed {
			break
		}
		if len(qr.Questions) == 0 {
			continue // long-poll timed out; ask again
		}
		answers := make([]Answer, 0, len(qr.Questions))
		for _, q := range qr.Questions {
			lab, err := answer(q.Stranger)
			if err != nil {
				return nil, fmt.Errorf("client: answer stranger %d: %w", q.Stranger, err)
			}
			answers = append(answers, Answer{Stranger: q.Stranger, Label: lab})
		}
		if _, err := api.Answer(ctx, id, answers); err != nil {
			// A question stays redelivered until the job takes its
			// answer, so a redelivered one can be answered after the
			// job already finished; the server then answers "conflict".
			// The job is terminal: re-poll for its final status.
			var apiErr *APIError
			if errors.As(err, &apiErr) && apiErr.Code == "conflict" {
				continue
			}
			return nil, err
		}
	}
	st, err := api.Get(ctx, id)
	if err != nil {
		return nil, err
	}
	if st.Status == StatusFailed {
		if st.Error != nil {
			return nil, st.Error
		}
		return nil, fmt.Errorf("client: job %s failed", id)
	}
	return st.Report, nil
}
