package main

// Serving-layer benchmark (serve mode): stands up an in-process
// sightd (internal/server behind httptest) over the synthetic study
// and runs every owner through the HTTP API twice — once with the
// server-side stored annotator (no wire loop) and once with the owner
// on the other end of the wire (questions long-polled, answers
// posted). Both served paths are verified byte-identical to the
// in-process serial run, so the numbers isolate pure serving overhead:
// endpoint latency, long-poll wake-up cost and per-question round
// trips. Results land in BENCH_serve.json (see EXPERIMENTS.md).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	sight "sightrisk"
	"sightrisk/client"
	"sightrisk/internal/dataset"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/parallel"
	"sightrisk/internal/server"
	"sightrisk/internal/stats"
)

// latencyStats summarizes a latency sample in microseconds.
type latencyStats struct {
	Samples   int     `json:"samples"`
	MeanMicro float64 `json:"mean_us"`
	P50Micro  float64 `json:"p50_us"`
	P95Micro  float64 `json:"p95_us"`
}

func summarize(samples []time.Duration) latencyStats {
	if len(samples) == 0 {
		return latencyStats{}
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	pick := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return float64(sorted[i]) / float64(time.Microsecond)
	}
	return latencyStats{
		Samples:   len(sorted),
		MeanMicro: float64(sum) / float64(len(sorted)) / float64(time.Microsecond),
		P50Micro:  pick(0.50),
		P95Micro:  pick(0.95),
	}
}

// serveSide is one served path's throughput numbers.
type serveSide struct {
	Owners         int     `json:"owners"`
	Queries        int     `json:"queries"`
	ElapsedMillis  float64 `json:"elapsed_ms"`
	OwnersPerSec   float64 `json:"owners_per_sec"`
	MillisPerOwner float64 `json:"ms_per_owner"`
	// MillisPerQuery is the full wire cost of one owner question on the
	// remote path: long-poll wake-up + answer POST (0 on the stored
	// path, which has no wire loop).
	MillisPerQuery float64 `json:"ms_per_query,omitempty"`
}

// newSide computes one path's throughput numbers.
func newSide(owners, queries int, elapsed time.Duration) serveSide {
	elapsedMS := float64(elapsed) / float64(time.Millisecond)
	return serveSide{
		Owners:         owners,
		Queries:        queries,
		ElapsedMillis:  elapsedMS,
		OwnersPerSec:   float64(owners) / elapsed.Seconds(),
		MillisPerOwner: elapsedMS / float64(max(1, owners)),
	}
}

// answers is owner rec answering questions over the wire from its
// stored labels, as serialBaseline's annotator answers in process.
func answers(rec dataset.OwnerRecord) func(int64) (int, error) {
	ann := dataset.StoredAnnotator{Labels: rec.Labels, Fallback: label.Risky}
	return func(s int64) (int, error) { return int(ann.LabelStranger(graph.UserID(s))), nil }
}

// serialBaseline runs every owner through the in-process library path
// and returns the wire-encoded report bytes the served runs must
// reproduce, plus throughput numbers.
func serialBaseline(ctx context.Context, ds *dataset.Dataset) (map[graph.UserID][]byte, serveSide, error) {
	net := sight.WrapNetwork(ds.Graph, ds.ProfileStore())
	want := make(map[graph.UserID][]byte, len(ds.Owners))
	queries := 0
	start := time.Now()
	for _, rec := range ds.Owners {
		ann := dataset.StoredAnnotator{Labels: rec.Labels, Fallback: label.Risky}
		rep, err := sight.EstimateRisk(ctx, net, rec.ID, ann, sight.DefaultOptions())
		if err != nil {
			return nil, serveSide{}, fmt.Errorf("serial baseline: owner %d: %w", rec.ID, err)
		}
		b, err := json.Marshal(client.FromReport(rep))
		if err != nil {
			return nil, serveSide{}, err
		}
		want[rec.ID] = b
		queries += rep.LabelsRequested
	}
	return want, newSide(len(ds.Owners), queries, time.Since(start)), nil
}

// matches reports whether the served report encodes to the serial
// run's bytes, and names the owner on stderr when it does not.
func matches(want []byte, rep *client.Report, path string, owner graph.UserID) bool {
	if got, err := json.Marshal(rep); err == nil && bytes.Equal(got, want) {
		return true
	}
	fmt.Fprintf(os.Stderr, "riskbench: %s report for owner %d differs from serial run\n", path, owner)
	return false
}

// serveBenchReport is the BENCH_serve.json shape.
type serveBenchReport struct {
	Scale   string `json:"scale"`
	Seed    int64  `json:"seed"`
	Owners  int    `json:"owners"`
	Workers int    `json:"workers"`
	// Healthz and Status sample raw endpoint latency (request in,
	// response out — no pipeline work).
	Healthz latencyStats `json:"healthz"`
	Status  latencyStats `json:"status"`
	// Serial is the in-process baseline the served paths are verified
	// byte-identical against.
	Serial serveSide `json:"serial"`
	Stored serveSide `json:"stored"`
	Remote serveSide `json:"remote"`
	// StoredOverhead is the served-over-serial wall-time ratio of the
	// stored path — pure serving-layer cost, no owner in the loop.
	StoredOverhead float64 `json:"stored_overhead_ratio"`
	Identical      bool    `json:"identical_reports"`
}

func runServeBench(o opts) (any, error) {
	cfg, err := studyConfig(o.scale, o.seed)
	if err != nil {
		return nil, err
	}
	resolved := parallel.ResolveWorkers(o.workers)
	fmt.Printf("riskbench: serve mode — scale=%s seed=%d (server workers=%d)\n", o.scale, o.seed, resolved)

	study, ds, err := studyDataset(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("riskbench: study: %d owners, %d strangers total\n", len(ds.Owners), study.TotalStrangers())

	srv, err := server.New(server.Config{
		Datasets: map[string]*dataset.Dataset{"study": ds},
		Workers:  resolved,
	})
	if err != nil {
		return nil, err
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()
	c := client.New(hs.URL)
	c.LongPoll = 10 * time.Second
	ctx := context.Background()

	want, serial, err := serialBaseline(ctx, ds)
	if err != nil {
		return nil, err
	}

	identical := true

	// Stored path: the pipeline runs entirely server-side; the wire
	// carries one submit and one status poll loop.
	storedQueries := 0
	storedStart := time.Now()
	for _, rec := range ds.Owners {
		st, err := c.Submit(ctx, &client.EstimateRequest{
			Dataset: "study", Owner: int64(rec.ID), Annotator: client.AnnotatorStored,
		})
		if err != nil {
			return nil, fmt.Errorf("stored path: owner %d: %w", rec.ID, err)
		}
		fin, err := c.Wait(ctx, st.ID)
		if err != nil {
			return nil, err
		}
		if fin.Status != client.StatusDone {
			return nil, fmt.Errorf("stored path: owner %d ended %q: %v", rec.ID, fin.Status, fin.Error)
		}
		storedQueries += fin.Queries
		identical = matches(want[rec.ID], fin.Report, "stored", rec.ID) && identical
	}
	storedElapsed := time.Since(storedStart)

	// Remote path: the owner answers over the wire — every question
	// pays a long-poll wake-up plus an answer POST.
	remoteQueries := 0
	remoteStart := time.Now()
	for _, rec := range ds.Owners {
		answer := answers(rec)
		rep, err := c.Run(ctx, &client.EstimateRequest{Dataset: "study", Owner: int64(rec.ID)},
			func(stranger int64) (int, error) { remoteQueries++; return answer(stranger) })
		if err != nil {
			return nil, fmt.Errorf("remote path: owner %d: %w", rec.ID, err)
		}
		identical = matches(want[rec.ID], rep, "remote", rec.ID) && identical
	}
	remoteElapsed := time.Since(remoteStart)

	// Raw endpoint latency, sampled against a terminal job's status.
	last, err := c.Submit(ctx, &client.EstimateRequest{
		Dataset: "study", Owner: int64(ds.Owners[0].ID), Annotator: client.AnnotatorStored,
	})
	if err != nil {
		return nil, err
	}
	if _, err := c.Wait(ctx, last.ID); err != nil {
		return nil, err
	}
	const pings = 50
	healthz := make([]time.Duration, 0, pings)
	status := make([]time.Duration, 0, pings)
	for i := 0; i < pings; i++ {
		t0 := time.Now()
		if _, err := c.Health(ctx); err != nil {
			return nil, err
		}
		healthz = append(healthz, time.Since(t0))
		t0 = time.Now()
		if _, err := c.Get(ctx, last.ID); err != nil {
			return nil, err
		}
		status = append(status, time.Since(t0))
	}

	stored := newSide(len(ds.Owners), storedQueries, storedElapsed)
	remote := newSide(len(ds.Owners), remoteQueries, remoteElapsed)
	remote.MillisPerQuery = remote.ElapsedMillis / float64(max(1, remoteQueries))
	report := serveBenchReport{
		Scale:          o.scale,
		Seed:           o.seed,
		Owners:         len(ds.Owners),
		Workers:        resolved,
		Healthz:        summarize(healthz),
		Status:         summarize(status),
		Serial:         serial,
		Stored:         stored,
		Remote:         remote,
		StoredOverhead: stored.ElapsedMillis / serial.ElapsedMillis,
		Identical:      identical,
	}

	t := stats.NewTable("Serving layer — sightd HTTP paths vs the in-process serial run (identical reports)",
		"path", "owners", "queries", "elapsed", "ms/owner", "ms/query")
	row := func(name string, s serveSide) {
		perQuery := "-"
		if s.MillisPerQuery > 0 {
			perQuery = fmt.Sprintf("%.2f", s.MillisPerQuery)
		}
		t.AddRow(name, fmt.Sprintf("%d", s.Owners), fmt.Sprintf("%d", s.Queries),
			fmt.Sprintf("%.0fms", s.ElapsedMillis), fmt.Sprintf("%.1f", s.MillisPerOwner), perQuery)
	}
	row("serial (in-process)", report.Serial)
	row("served, stored", report.Stored)
	row("served, remote", report.Remote)
	fmt.Println(t)
	fmt.Printf("serving overhead (stored/serial): %.2fx   healthz p50 %.0fµs   status p50 %.0fµs   identical reports: %v\n\n",
		report.StoredOverhead, report.Healthz.P50Micro, report.Status.P50Micro, identical)

	if !identical {
		return nil, fmt.Errorf("served reports are not byte-identical to serial output")
	}
	return report, nil
}
