package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sightrisk/client"
	"sightrisk/internal/core"
	"sightrisk/internal/obs"
	"sightrisk/internal/server"
)

// fixture is one in-process sightd: server.New behind a loopback
// listener, driven through client.Client exactly as a deployed caller
// would drive it.
type fixture struct {
	srv     *server.Server
	hs      *http.Server
	url     string
	served  chan struct{} // closed when the listener's Serve returns
	metrics *obs.Metrics
	tracer  *tracer // nil on untraced runs
	dir     string  // durable state directory to remove, "" for none

	mu         sync.Mutex
	transports []*http.Transport
}

// startServer builds the server and starts serving it on a loopback
// port. cfg.Metrics and cfg.Logf are owned by the fixture. tr, when
// non-nil, wraps the handler so traced requests record handler time.
func startServer(cfg server.Config, tr *tracer, dir string) (*fixture, error) {
	m := &obs.Metrics{}
	cfg.Metrics = m
	cfg.Logf = func(string, ...any) {}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(ctx) // the listen error is the one to report
		return nil, fmt.Errorf("listen: %w", err)
	}
	var h http.Handler = srv
	if tr != nil {
		h = tr.wrap(srv)
	}
	f := &fixture{
		srv:     srv,
		hs:      &http.Server{Handler: h, ErrorLog: log.New(io.Discard, "", 0)},
		url:     "http://" + ln.Addr().String(),
		served:  make(chan struct{}),
		metrics: m,
		tracer:  tr,
		dir:     dir,
	}
	go func() {
		defer close(f.served)
		_ = f.hs.Serve(ln) // always ErrServerClosed once stop runs
	}()
	return f, nil
}

// client returns a client with its own single-connection transport, so
// the number of clients a workload creates bounds its connections.
// Retries are off: a refused or failed request must count as failed,
// not be hidden behind a backoff.
func (f *fixture) client() *client.Client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	f.mu.Lock()
	f.transports = append(f.transports, t)
	f.mu.Unlock()
	var rt http.RoundTripper = t
	if f.tracer != nil {
		rt = tracingTransport{t: f.tracer, inner: t}
	}
	c := client.New(f.url)
	c.HTTPClient = &http.Client{Transport: rt}
	c.Options.Retry.Disabled = true
	c.Options.Estimate.LongPoll = 30 * time.Second
	return c
}

// stop drains the server, closes the listener and every client
// connection, waits for the serving goroutine and removes the state
// directory.
func (f *fixture) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := f.srv.Drain(ctx)
	if cerr := f.hs.Close(); err == nil {
		err = cerr
	}
	<-f.served
	f.mu.Lock()
	for _, t := range f.transports {
		t.CloseIdleConnections()
	}
	f.mu.Unlock()
	if f.dir != "" {
		if rerr := os.RemoveAll(f.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// seqHeader carries a traced request's sequence number from the client
// transport to the handler wrapper, pairing the two timings.
const seqHeader = "X-Sightbench-Seq"

// tracedKey marks a request context whose requests are traced.
type tracedKey struct{}

// traced returns ctx marked for tracing when on is set.
func traced(ctx context.Context, on bool) context.Context {
	if !on {
		return ctx
	}
	return context.WithValue(ctx, tracedKey{}, true)
}

// span is one traced request as the handler saw it.
type span struct {
	route string
	ms    float64
}

// storePut is one timed durable-store write.
type storePut struct {
	job string
	ms  float64
}

// tracer collects the serving layer's spans: handler time per traced
// request (server side), client-observed time per traced request
// (client side, up to the response body's close) and durable-store
// write times. Spans stay in memory until the run ends.
type tracer struct {
	seq atomic.Int64

	mu      sync.Mutex
	handler map[int64]span
	client  map[int64]float64 // client-observed ms
	puts    []storePut
}

func newTracer() *tracer {
	return &tracer{handler: map[int64]span{}, client: map[int64]float64{}}
}

// wrap times the handler for every request carrying seqHeader.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq, err := strconv.ParseInt(r.Header.Get(seqHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := ms(time.Since(t0))
		t.mu.Lock()
		t.handler[seq] = span{route: routeOf(r.URL.Path), ms: d}
		t.mu.Unlock()
	})
}

// put records one store write.
func (t *tracer) put(job string, d time.Duration) {
	t.mu.Lock()
	t.puts = append(t.puts, storePut{job: job, ms: ms(d)})
	t.mu.Unlock()
}

// routeOf names the sightd endpoint a path belongs to.
func routeOf(path string) string {
	switch {
	case path == "/v1/estimates":
		return "submit"
	case path == "/v1/updates":
		return "updates"
	case path == "/v1/stats":
		return "stats"
	case strings.HasPrefix(path, "/v1/estimates/"):
		for _, suffix := range []string{"questions", "answers", "revise", "stream"} {
			if strings.HasSuffix(path, "/"+suffix) {
				return suffix
			}
		}
		return "get"
	}
	return "other"
}

// handlerMean is the mean handler time of the traced requests to
// route.
func (t *tracer) handlerMean(route string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var vals []float64
	for _, s := range t.handler {
		if s.route == route {
			vals = append(vals, s.ms)
		}
	}
	return mean(vals)
}

// transportMean is the mean of client-observed minus handler time over
// every traced request both sides saw.
func (t *tracer) transportMean() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var vals []float64
	for seq, c := range t.client {
		if h, ok := t.handler[seq]; ok {
			vals = append(vals, c-h.ms)
		}
	}
	return mean(vals)
}

// putsFor returns the store writes made for the given jobs.
func (t *tracer) putsFor(jobs map[string]bool) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var vals []float64
	for _, p := range t.puts {
		if jobs[p.job] {
			vals = append(vals, p.ms)
		}
	}
	return vals
}

// tracingTransport stamps traced requests with a sequence number and
// records the client-observed time from sending to closing the
// response body.
type tracingTransport struct {
	t     *tracer
	inner http.RoundTripper
}

// RoundTrip implements http.RoundTripper.
func (tt tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Context().Value(tracedKey{}) == nil {
		return tt.inner.RoundTrip(r)
	}
	seq := tt.t.seq.Add(1)
	r2 := r.Clone(r.Context())
	r2.Header.Set(seqHeader, strconv.FormatInt(seq, 10))
	t0 := time.Now()
	resp, err := tt.inner.RoundTrip(r2)
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		d := ms(time.Since(t0))
		tt.t.mu.Lock()
		tt.t.client[seq] = d
		tt.t.mu.Unlock()
	}}
	return resp, nil
}

// timedBody calls done once, when the body is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

// Close implements io.Closer.
func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// timedStore is the durable store sightd would build from StateDir,
// with every write timed.
type timedStore struct {
	*server.DirStore
	t *tracer
}

// PutJob implements server.Store.
func (s timedStore) PutJob(rec server.JobRecord) error {
	t0 := time.Now()
	err := s.DirStore.PutJob(rec)
	s.t.put(rec.ID, time.Since(t0))
	return err
}

// PutFinal implements server.Store.
func (s timedStore) PutFinal(id string, fin server.FinalRecord) error {
	t0 := time.Now()
	err := s.DirStore.PutFinal(id, fin)
	s.t.put(id, time.Since(t0))
	return err
}

// PutCheckpoint implements server.Store.
func (s timedStore) PutCheckpoint(id string, cp *core.Checkpoint) error {
	t0 := time.Now()
	err := s.DirStore.PutCheckpoint(id, cp)
	s.t.put(id, time.Since(t0))
	return err
}

// setupLog times a workload's set-ups: the kept one before the window,
// then the repeats after the checks. setup_s is their median.
type setupLog struct {
	tally
	secs []float64
}

// run performs one set-up, counting and timing it.
func (s *setupLog) run(start func() error) error {
	t0 := time.Now()
	err := start()
	if s.record(err) {
		s.secs = append(s.secs, time.Since(t0).Seconds())
	}
	return err
}

// repeat performs the remaining set-ups, tearing each down untimed.
func (s *setupLog) repeat(res *result, start func() (*fixture, error)) error {
	for len(s.secs) < setupRepeats {
		var fx *fixture
		if err := s.run(func() (err error) { fx, err = start(); return err }); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if err := fx.stop(); !s.record(err) {
			res.fail("teardown: %v", err)
		}
	}
	return nil
}

// finish reports the set-up phase first and adds the set-up and memory
// figures every workload shares.
func (s *setupLog) finish(res *result, rss float64) {
	res.phases = append([]phase{{name: "setup", tally: s.tally}}, res.phases...)
	res.figures = append(res.figures,
		figure{name: "setup_s", value: percentile(s.secs, 50), unit: "s", n: len(s.secs), slot: "setup_s"},
		figure{name: "peak_rss_mb", value: rss, unit: "MB", slot: "peak_rss_mb"},
	)
}
