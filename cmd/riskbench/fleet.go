package main

// Fleet benchmark (fleet mode): the multi-tenant scheduler that
// sightd serves from (fleet.Scheduler) against the status-quo baseline
// of running the same owner jobs one after another. Both sides run
// identical jobs on content-identical studies, every question pays the
// same simulated annotator round-trip, and their per-owner reports are
// verified byte-identical (core.DiffRuns), so the comparison is pure
// throughput: the scheduler overlaps owners' round-trip waits and
// shares weight-matrix builds across tenants (one content-keyed
// cache), while the serial baseline pays both per run.

import (
	"context"
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"sightrisk/internal/active"
	"sightrisk/internal/core"
	"sightrisk/internal/fleet"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/parallel"
	"sightrisk/internal/profile"
	"sightrisk/internal/propagation"
	"sightrisk/internal/similarity"
	"sightrisk/internal/stats"
	"sightrisk/internal/synthetic"
)

// rttAnnotator charges each question one simulated round-trip to an
// annotator behind the network, on both sides of the comparison.
type rttAnnotator struct {
	inner active.FallibleAnnotator
	rtt   time.Duration
}

func (a rttAnnotator) LabelStranger(ctx context.Context, s graph.UserID) (label.Label, error) {
	select {
	case <-time.After(a.rtt):
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	return a.inner.LabelStranger(ctx, s)
}

// annotatorFor is owner o's annotator, behind rtt when rtt > 0.
func annotatorFor(o *synthetic.Owner, rtt time.Duration) active.FallibleAnnotator {
	var ann active.FallibleAnnotator = active.Infallible(o)
	if rtt > 0 {
		ann = rttAnnotator{inner: ann, rtt: rtt}
	}
	return ann
}

type microResult struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

type fleetSide struct {
	Owners        int     `json:"owners"`
	Queries       int     `json:"queries"`
	ElapsedMillis float64 `json:"elapsed_ms"`
	OwnersPerSec  float64 `json:"owners_per_sec"`
	QueriesPerSec float64 `json:"queries_per_sec"`

	CacheEntries int     `json:"cache_entries,omitempty"`
	CacheHitRate float64 `json:"cache_hit_rate,omitempty"`
}

func newFleetSide(owners, queries int, elapsed time.Duration) fleetSide {
	return fleetSide{
		Owners:        owners,
		Queries:       queries,
		ElapsedMillis: float64(elapsed) / float64(time.Millisecond),
		OwnersPerSec:  float64(owners) / elapsed.Seconds(),
		QueriesPerSec: float64(queries) / elapsed.Seconds(),
	}
}

// tenantLatency is one tenant's job latency under the scheduler,
// measured from admission to completion (queueing for a worker
// included), so a starved tenant shows up as a long tail.
type tenantLatency struct {
	Tenant    string  `json:"tenant"`
	Jobs      int     `json:"jobs"`
	P50Millis float64 `json:"p50_ms"`
	MaxMillis float64 `json:"max_ms"`
}

type fleetBenchReport struct {
	Scale           string                 `json:"scale"`
	Seed            int64                  `json:"seed"`
	Tenants         int                    `json:"tenants"`
	OwnersPerTenant int                    `json:"owners_per_tenant"`
	Workers         int                    `json:"workers"`
	RTTMillis       float64                `json:"rtt_ms"`
	Fleet           fleetSide              `json:"fleet"`
	TenantLatency   []tenantLatency        `json:"tenant_latency"`
	Serial          fleetSide              `json:"serial"`
	Speedup         float64                `json:"speedup_owners_per_sec"`
	Identical       bool                   `json:"identical_reports"`
	Micro           map[string]microResult `json:"micro"`
}

func runFleetBench(o opts) (any, error) {
	nTenants, workers, rtt := o.tenants, o.workers, o.tenantRTT
	if nTenants < 1 {
		return nil, fmt.Errorf("-tenants %d: need at least one tenant", nTenants)
	}
	cfg, err := studyConfig(o.scale, o.seed)
	if err != nil {
		return nil, err
	}
	resolved := parallel.ResolveWorkers(workers)
	fmt.Printf("riskbench: fleet mode — %d tenant replicas of scale=%s seed=%d (cpu workers=%d rtt=%v)\n",
		nTenants, o.scale, o.seed, resolved, rtt)

	genStart := time.Now()
	studies := make([]*synthetic.Study, nTenants)
	for i := range studies {
		// Content-identical replicas, structurally separate: synthetic
		// owners memoize their answers and are not safe to share across
		// concurrently running tenants.
		s, err := synthetic.GenerateStudy(cfg)
		if err != nil {
			return nil, err
		}
		studies[i] = s
	}
	owners := len(studies[0].Owners)
	fmt.Printf("riskbench: generated %d replicas in %v (%d owners, %d strangers each)\n",
		nTenants, time.Since(genStart).Round(time.Millisecond), owners, studies[0].TotalStrangers())

	// Scheduler worker slots: jobs spend most of their wall time waiting
	// on annotator round-trips, so the scheduler keeps many more jobs in
	// flight than there are CPUs — CPU parallelism stays bounded by
	// GOMAXPROCS either way, which keeps the comparison against the
	// serial baseline at an equal compute budget. An explicit -workers
	// value caps both sides.
	fleetWorkers := workers
	totalJobs := nTenants * owners
	if fleetWorkers <= 0 {
		fleetWorkers = min(totalJobs, 64)
	}
	sched, err := fleet.NewScheduler(fleet.SchedulerConfig{Engine: core.DefaultConfig(), Workers: fleetWorkers})
	if err != nil {
		return nil, err
	}
	defer sched.Close()

	// Every job is admitted up front and runs in its own goroutine, the
	// way sightd launches a submitted estimate. Admissions interleave
	// the tenants (job 0 of every tenant, then job 1, ...) — tenants
	// submitting concurrently — so queueing for a worker slot is shared
	// evenly and the per-tenant latencies show whether any tenant
	// starves.
	type tenant struct {
		id        string
		snap      *graph.Snapshot
		runs      []*core.OwnerRun
		errs      []error
		latencies []float64
	}
	tenants := make([]tenant, nTenants)
	for ti, s := range studies {
		tenants[ti] = tenant{fmt.Sprintf("tenant%02d", ti), s.Graph.Snapshot(),
			make([]*core.OwnerRun, owners), make([]error, owners), make([]float64, owners)}
	}
	var wg sync.WaitGroup
	fleetStart := time.Now()
	for ji := 0; ji < owners; ji++ {
		for ti, s := range studies {
			tn := &tenants[ti]
			adm, err := sched.Admit(tn.id)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			wg.Add(1)
			go func() {
				defer wg.Done()
				o := s.Owners[ji]
				tn.runs[ji], tn.errs[ji] = adm.Run(context.Background(), fleet.Job{
					Snapshot:   tn.snap,
					Store:      s.Profiles,
					Owner:      o.ID,
					Annotator:  annotatorFor(o, rtt),
					Confidence: o.Confidence,
				})
				tn.latencies[ji] = float64(time.Since(start)) / float64(time.Millisecond)
			}()
		}
	}
	wg.Wait()
	fleetElapsed := time.Since(fleetStart)
	fleetQueries := 0
	tenantLat := make([]tenantLatency, nTenants)
	for ti, tn := range tenants {
		for ji, run := range tn.runs {
			if err := tn.errs[ji]; err != nil {
				return nil, fmt.Errorf("fleet: tenant %s job %d: %w", tn.id, ji, err)
			}
			fleetQueries += run.QueriedCount()
		}
		tenantLat[ti] = tenantLatency{Tenant: tn.id, Jobs: owners,
			P50Millis: stats.Median(tn.latencies), MaxMillis: slices.Max(tn.latencies)}
	}
	cache := sched.Stats().Cache

	// Serial baseline: the same jobs one after another, each single run
	// getting the full worker budget and each question paying its own
	// round-trip. The owners' memoized answers are already warm from the
	// fleet phase, which only flatters the baseline.
	scfg := core.DefaultConfig()
	scfg.Workers = workers
	engine := core.New(scfg)
	serialRuns := make([][]*core.OwnerRun, nTenants)
	serialQueries := 0
	serialStart := time.Now()
	for ti, s := range studies {
		serialRuns[ti] = make([]*core.OwnerRun, owners)
		for ji, o := range s.Owners {
			run, err := engine.RunOwner(context.Background(), s.Graph, s.Profiles, o.ID, annotatorFor(o, rtt), o.Confidence)
			if err != nil {
				return nil, fmt.Errorf("serial baseline: tenant %d owner %d: %w", ti, o.ID, err)
			}
			serialRuns[ti][ji] = run
			serialQueries += run.QueriedCount()
		}
	}
	serialElapsed := time.Since(serialStart)

	identical := true
	for ti := range serialRuns {
		for ji, want := range serialRuns[ti] {
			if d := core.DiffRuns(tenants[ti].runs[ji], want); d != "" {
				identical = false
				fmt.Fprintf(os.Stderr, "riskbench: fleet output differs from serial for tenant %d owner %d: %s\n",
					ti, want.Owner, d)
			}
		}
	}

	fleetS, serialS := newFleetSide(totalJobs, fleetQueries, fleetElapsed), newFleetSide(totalJobs, serialQueries, serialElapsed)
	fleetS.CacheEntries, fleetS.CacheHitRate = cache.Entries, cache.HitRate()
	speedup := fleetS.OwnersPerSec / serialS.OwnersPerSec

	t := stats.NewTable("Fleet throughput — fleet.Scheduler vs sequential single-owner runs (identical per-owner reports)",
		"mode", "owners", "queries", "elapsed", "owners/sec", "queries/sec", "cache hits")
	row := func(name string, s fleetSide, elapsed time.Duration, hits string) {
		t.AddRow(name, fmt.Sprintf("%d", s.Owners), fmt.Sprintf("%d", s.Queries), elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2f", s.OwnersPerSec), fmt.Sprintf("%.1f", s.QueriesPerSec), hits)
	}
	row("fleet", fleetS, fleetElapsed, stats.Pct(cache.HitRate()))
	row("serial", serialS, serialElapsed, "-")
	fmt.Println(t)
	lt := stats.NewTable("Fleet job latency per tenant — admission to completion",
		"tenant", "jobs", "p50", "max")
	for _, tl := range tenantLat {
		lt.AddRow(tl.Tenant, fmt.Sprintf("%d", tl.Jobs),
			fmt.Sprintf("%.0fms", tl.P50Millis), fmt.Sprintf("%.0fms", tl.MaxMillis))
	}
	fmt.Println(lt)
	fmt.Printf("fleet speedup: %.2fx owners/sec  (%d scheduler workers, cache %d entries, identical reports: %v)\n\n",
		speedup, fleetWorkers, cache.Entries, identical)

	fmt.Println("riskbench: micro-benchmarks (reference vs optimized hot paths)...")
	micro, err := microBenches(o.seed)
	if err != nil {
		return nil, fmt.Errorf("micro-benchmarks: %w", err)
	}
	for _, name := range []string{"montecarlo_map", "montecarlo_snapshot", "ps_matrix_pairwise", "ps_matrix_indexed"} {
		m := micro[name]
		fmt.Printf("  %-22s %12d ns/op %10d B/op %8d allocs/op\n", name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
	}
	fmt.Println()

	report := fleetBenchReport{
		Scale:           o.scale,
		Seed:            o.seed,
		Tenants:         nTenants,
		OwnersPerTenant: owners,
		Workers:         resolved,
		RTTMillis:       float64(rtt) / float64(time.Millisecond),
		Fleet:           fleetS,
		TenantLatency:   tenantLat,
		Serial:          serialS,
		Speedup:         speedup,
		Identical:       identical,
		Micro:           micro,
	}
	if !identical {
		return nil, fmt.Errorf("fleet reports are not byte-identical to serial output")
	}
	return report, nil
}

// microBenches times the two optimized hot paths against their
// retained reference implementations on a small fixed-size study, via
// testing.Benchmark, so the speedups land in BENCH_fleet.json next to
// the fleet numbers.
func microBenches(seed int64) (map[string]microResult, error) {
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = 1
	cfg.Ego.Strangers = 400
	cfg.Seed = seed
	study, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		return nil, err
	}
	g := study.Graph
	store := study.Profiles
	owner := study.Owners[0]
	targets := owner.Strangers()
	snap := g.Snapshot()
	pcfg := propagation.DefaultConfig()

	ids := targets
	if len(ids) > 120 {
		ids = ids[:120]
	}
	profiles := make([]*profile.Profile, len(ids))
	for i, id := range ids {
		profiles[i] = store.Get(id)
	}
	psctx := similarity.NewPSContext(store, ids, nil)

	// loop times f per iteration, allocations included.
	loop := func(f func() error) microResult {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := f(); err != nil {
					b.Fatal(err)
				}
			}
		})
		return microResult{NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()}
	}
	return map[string]microResult{
		"montecarlo_map": loop(func() error {
			_, err := propagation.MonteCarloReference(g, owner.ID, targets, pcfg)
			return err
		}),
		"montecarlo_snapshot": loop(func() error {
			_, err := propagation.MonteCarlo(snap, owner.ID, targets, pcfg)
			return err
		}),
		"ps_matrix_pairwise": loop(func() error { psctx.MatrixReference(profiles); return nil }),
		"ps_matrix_indexed":  loop(func() error { psctx.Matrix(profiles); return nil }),
	}, nil
}
