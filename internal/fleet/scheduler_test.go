package fleet

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"sightrisk/internal/active"
	"sightrisk/internal/core"
	"sightrisk/internal/graph"
	"sightrisk/internal/graph/snapfile"
	"sightrisk/internal/label"
	"sightrisk/internal/obs"
	"sightrisk/internal/similarity"
	"sightrisk/internal/synthetic"
)

// fleetStudy generates a deterministic small study. Distinct calls
// with the same seed yield content-identical but structurally separate
// studies — the tenant-replica pattern (owner annotators memoize and
// are not thread-safe, so tenants never share Owner structs).
func fleetStudy(t testing.TB, owners, strangers int, seed int64) *synthetic.Study {
	t.Helper()
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = owners
	cfg.Ego.Strangers = strangers
	cfg.Seed = seed
	s, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// diffRuns compares the observable content of two owner runs via the
// engine's exported NaN-aware comparator, plus the Partial flag that
// marks interrupted runs.
func diffRuns(a, b *core.OwnerRun) string {
	if a == nil || b == nil {
		return fmt.Sprintf("nil run: %v vs %v", a == nil, b == nil)
	}
	if a.Partial != b.Partial {
		return "partial flag mismatch"
	}
	return core.DiffRuns(a, b)
}

// serialBaseline runs every owner standalone on the engine's serial
// path — the reference the scheduler must reproduce byte for byte.
func serialBaseline(t testing.TB, s *synthetic.Study) map[graph.UserID]*core.OwnerRun {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	out := make(map[graph.UserID]*core.OwnerRun, len(s.Owners))
	for _, o := range s.Owners {
		run, err := core.New(cfg).RunOwner(context.Background(), s.Graph, s.Profiles, o.ID, active.Infallible(o), o.Confidence)
		if err != nil {
			t.Fatal(err)
		}
		out[o.ID] = run
	}
	return out
}

func newTestScheduler(t *testing.T, workers int) *Scheduler {
	t.Helper()
	s, err := NewScheduler(SchedulerConfig{Engine: core.DefaultConfig(), Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// jobsOf returns one job per study owner, answered by the owner's own
// synthetic annotator over one snapshot of the study's graph.
func jobsOf(study *synthetic.Study) []Job {
	snap := study.Graph.Snapshot()
	jobs := make([]Job, len(study.Owners))
	for i, o := range study.Owners {
		jobs[i] = Job{
			Snapshot: snap, Store: study.Profiles,
			Owner: o.ID, Annotator: active.Infallible(o), Confidence: o.Confidence,
		}
	}
	return jobs
}

// runAll admits every job for tenant up front and runs each in its own
// goroutine — the way sightd launches submitted estimates — returning
// the runs and errors in job order.
func runAll(ctx context.Context, t *testing.T, s *Scheduler, tenant string, jobs []Job) ([]*core.OwnerRun, []error) {
	t.Helper()
	runs := make([]*core.OwnerRun, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		adm, err := s.Admit(tenant)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i], errs[i] = adm.Run(ctx, job)
		}()
	}
	wg.Wait()
	return runs, errs
}

// TestSchedulerMatchesSerial: every run out of the scheduler — jobs
// admitted one at a time, executed concurrently — is identical to its
// standalone serial run.
func TestSchedulerMatchesSerial(t *testing.T) {
	study := fleetStudy(t, 3, 120, 11)
	want := serialBaseline(t, study)
	s := newTestScheduler(t, 4)
	defer s.Close()

	jobs := jobsOf(study)
	runs, errs := runAll(context.Background(), t, s, "tenant-a", jobs)
	for i, run := range runs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if d := diffRuns(want[jobs[i].Owner], run); d != "" {
			t.Errorf("owner %d diverged from serial baseline: %s", jobs[i].Owner, d)
		}
	}
	st := s.Stats()
	if st.Completed != len(study.Owners) {
		t.Errorf("Completed = %d, want %d", st.Completed, len(study.Owners))
	}
	if st.Active != 0 {
		t.Errorf("Active = %d after all runs released, want 0", st.Active)
	}
}

// TestSchedulerActiveLimit: a tenant at MaxActive admitted jobs gets
// an OverBudgetError with a short RetryAfter, and admission recovers
// once a job releases.
func TestSchedulerActiveLimit(t *testing.T) {
	s := newTestScheduler(t, 2)
	defer s.Close()
	s.Limit("t", TenantLimits{MaxActive: 1})

	adm, err := s.Admit("t")
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Admit("t")
	var over *OverBudgetError
	if !errors.As(err, &over) {
		t.Fatalf("second Admit: got %v, want *OverBudgetError", err)
	}
	if over.Reason != SkipActive {
		t.Errorf("Reason = %q, want %q", over.Reason, SkipActive)
	}
	if over.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0 (clears when a job finishes)", over.RetryAfter)
	}
	// Other tenants are unaffected.
	if adm2, err := s.Admit("u"); err != nil {
		t.Errorf("other tenant rejected: %v", err)
	} else {
		adm2.Cancel()
	}
	adm.Cancel()
	if adm3, err := s.Admit("t"); err != nil {
		t.Errorf("Admit after release: %v", err)
	} else {
		adm3.Cancel()
	}
}

// TestSchedulerQueryBudget: once a tenant's finished jobs spend its
// query budget, further admissions are rejected with SkipQueries.
func TestSchedulerQueryBudget(t *testing.T) {
	study := fleetStudy(t, 1, 100, 3)
	s := newTestScheduler(t, 1)
	defer s.Close()
	s.Limit("t", TenantLimits{MaxQueries: 1})

	o := study.Owners[0]
	adm, err := s.Admit("t")
	if err != nil {
		t.Fatal(err)
	}
	run, err := adm.Run(context.Background(), Job{
		Snapshot: study.Graph.Snapshot(), Store: study.Profiles,
		Owner: o.ID, Annotator: active.Infallible(o), Confidence: o.Confidence,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.QueriedCount() < 1 {
		t.Fatalf("run spent %d queries, test needs >= 1", run.QueriedCount())
	}
	_, err = s.Admit("t")
	var over *OverBudgetError
	if !errors.As(err, &over) {
		t.Fatalf("Admit over budget: got %v, want *OverBudgetError", err)
	}
	if over.Reason != SkipQueries {
		t.Errorf("Reason = %q, want %q", over.Reason, SkipQueries)
	}
	if over.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", over.RetryAfter)
	}
	if usage := s.Stats().Tenants["t"]; usage.Queries != run.QueriedCount() {
		t.Errorf("accounted queries = %d, want %d", usage.Queries, run.QueriedCount())
	}
}

// TestFleetQueryBudget: two tenants share one scheduler; the budgeted
// tenant runs its first job, then every later job is refused with
// SkipQueries, while the unbudgeted tenant runs all of its jobs.
func TestFleetQueryBudget(t *testing.T) {
	s := newTestScheduler(t, 4)
	defer s.Close()
	s.Limit("budgeted", TenantLimits{MaxQueries: 1}) // first finished job exceeds this

	budgeted := jobsOf(fleetStudy(t, 3, 80, 5))
	adm, err := s.Admit("budgeted")
	if err != nil {
		t.Fatal(err)
	}
	first, err := adm.Run(context.Background(), budgeted[0])
	if err != nil {
		t.Fatalf("budgeted job 0 should run: %v", err)
	}
	if first.QueriedCount() <= 1 {
		t.Fatalf("budgeted tenant spent %d queries, expected > 1 from job 0", first.QueriedCount())
	}
	for ji := 1; ji < len(budgeted); ji++ {
		_, err := s.Admit("budgeted")
		var over *OverBudgetError
		if !errors.As(err, &over) || over.Reason != SkipQueries {
			t.Fatalf("budgeted job %d: Admit = %v, want SkipQueries", ji, err)
		}
	}

	runs, errs := runAll(context.Background(), t, s, "free", jobsOf(fleetStudy(t, 3, 80, 5)))
	for ji := range runs {
		if runs[ji] == nil || errs[ji] != nil {
			t.Fatalf("free tenant job %d did not run: %v", ji, errs[ji])
		}
	}
	if q := s.Stats().Tenants["budgeted"].Queries; q != first.QueriedCount() {
		t.Errorf("budgeted tenant accounted %d queries, want %d", q, first.QueriedCount())
	}
}

// TestSchedulerQueuedCancellation: a job canceled while waiting for a
// worker slot returns the context error and releases its admission.
func TestSchedulerQueuedCancellation(t *testing.T) {
	study := fleetStudy(t, 1, 60, 5)
	s := newTestScheduler(t, 1)
	defer s.Close()

	// Occupy the only worker with a job blocked on its annotator.
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	o := study.Owners[0]
	blocker := active.FallibleFunc(func(ctx context.Context, u graph.UserID) (label.Label, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return o.LabelStranger(u), nil
	})
	admA, err := s.Admit("t")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := admA.Run(context.Background(), Job{
			Snapshot: study.Graph.Snapshot(), Store: study.Profiles,
			Owner: o.ID, Annotator: blocker, Confidence: o.Confidence,
		}); err != nil {
			t.Error(err)
		}
	}()
	<-started

	admB, err := s.Admit("t")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := admB.Run(ctx, Job{
		Snapshot: study.Graph.Snapshot(), Store: study.Profiles,
		Owner: o.ID, Annotator: active.Infallible(o), Confidence: o.Confidence,
	}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("queued Run under expired ctx: got %v, want deadline exceeded", err)
	}
	close(release)
	<-done
	if st := s.Stats(); st.Active != 0 {
		t.Errorf("Active = %d after release, want 0", st.Active)
	}
}

// TestSchedulerClose: a closed scheduler rejects admissions.
func TestSchedulerClose(t *testing.T) {
	s := newTestScheduler(t, 1)
	s.Close()
	if _, err := s.Admit("t"); err == nil {
		t.Fatal("Admit after Close succeeded")
	}
}

// TestSchedulerConfigureCannotBreakSerialPath: a Configure callback
// that tries to set Workers (or detach the shared weight cache) is
// overridden — the serial path is what makes served output
// byte-identical to standalone runs.
func TestSchedulerConfigureCannotBreakSerialPath(t *testing.T) {
	study := fleetStudy(t, 1, 80, 9)
	want := serialBaseline(t, study)
	s := newTestScheduler(t, 2)
	defer s.Close()

	o := study.Owners[0]
	adm, err := s.Admit("t")
	if err != nil {
		t.Fatal(err)
	}
	run, err := adm.Run(context.Background(), Job{
		Snapshot: study.Graph.Snapshot(), Store: study.Profiles,
		Owner: o.ID, Annotator: active.Infallible(o), Confidence: o.Confidence,
		Configure: func(c *core.Config) {
			c.Workers = 8 // must be ignored
			c.Weights = nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := diffRuns(want[o.ID], run); d != "" {
		t.Errorf("run diverged from serial baseline: %s", d)
	}
}

// TestFleetMatchesSerial: two content-identical tenants on one
// scheduler both reproduce the serial baseline, and the shared weight
// cache serves the second tenant's pools from the first's builds.
func TestFleetMatchesSerial(t *testing.T) {
	want := serialBaseline(t, fleetStudy(t, 3, 150, 7))
	s := newTestScheduler(t, 4)
	defer s.Close()
	for _, tenant := range []string{"t0", "t1"} {
		jobs := jobsOf(fleetStudy(t, 3, 150, 7))
		runs, errs := runAll(context.Background(), t, s, tenant, jobs)
		for i, run := range runs {
			if errs[i] != nil {
				t.Fatalf("tenant %s job %d: %v", tenant, i, errs[i])
			}
			if d := diffRuns(run, want[run.Owner]); d != "" {
				t.Fatalf("tenant %s owner %d differs from serial: %s", tenant, run.Owner, d)
			}
		}
	}
	st := s.Stats()
	if st.Completed != 6 || st.Tenants["t0"].Queries == 0 || st.Tenants["t1"].Queries != st.Tenants["t0"].Queries {
		t.Fatalf("stats = %+v", st)
	}
	if st.Cache.Hits == 0 {
		t.Fatalf("cache never hit across identical tenants: %+v", st.Cache)
	}
}

// TestFleetSnapshotOnlyTenant: a job backed purely by an mmap'd
// snapshot file produces runs byte-identical to the same owner's run
// over the live graph — with the paper's NS and with a classical
// measure from the ablation registry.
func TestFleetSnapshotOnlyTenant(t *testing.T) {
	study := fleetStudy(t, 2, 100, 11)
	snap := study.Graph.Snapshot()
	table, err := snapfile.TableFromStore(snap.Nodes(), study.Profiles)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tenant.snap")
	if err := snapfile.Create(path, snapfile.Contents{Snapshot: snap, Profiles: table}); err != nil {
		t.Fatal(err)
	}
	f, err := snapfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	jobs := jobsOf(study)
	for i := range jobs {
		jobs[i].Snapshot, jobs[i].Store = f.Snapshot(), f.Profiles().Store()
	}
	var scores []map[graph.UserID]float64
	for _, measure := range []string{"NS", "cosine"} {
		ecfg := core.DefaultConfig()
		if measure != "NS" {
			if ecfg.Pool.NetworkSim, err = similarity.MeasureByName(measure); err != nil {
				t.Fatal(err)
			}
		}
		want := map[graph.UserID]*core.OwnerRun{}
		for _, o := range study.Owners {
			cfg := ecfg
			cfg.Workers = 1
			run, err := core.New(cfg).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
			if err != nil {
				t.Fatal(err)
			}
			want[o.ID] = run
		}
		scores = append(scores, want[study.Owners[0].ID].NSG.Score)
		s, err := NewScheduler(SchedulerConfig{Engine: ecfg, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		runs, errs := runAll(context.Background(), t, s, "mmap", jobs)
		s.Close()
		for i, run := range runs {
			if errs[i] != nil {
				t.Fatalf("%s job %d: %v", measure, i, errs[i])
			}
			if d := diffRuns(run, want[run.Owner]); d != "" {
				t.Fatalf("%s: owner %d differs from in-process graph-backed run: %s", measure, run.Owner, d)
			}
		}
	}
	if reflect.DeepEqual(scores[0], scores[1]) {
		t.Fatal("cosine scored every stranger like NS: the measure never reached the pool build")
	}
}

// TestFleetConcurrentStress drives six tenants with mixed limits
// through one scheduler, one shared cache and fewer workers than jobs —
// the -race target for admission accounting. Each tenant retries
// concurrency rejections and stops at its query budget, the way a
// client honoring 429s does; every job that runs must still match the
// serial baseline.
func TestFleetConcurrentStress(t *testing.T) {
	want := serialBaseline(t, fleetStudy(t, 2, 60, 9))
	s := newTestScheduler(t, 3)
	defer s.Close()
	limits := []TenantLimits{
		{},
		{MaxQueries: 3},
		{MaxActive: 1},
		{MaxActive: 1, MaxQueries: 3},
		{MaxActive: 2},
		{MaxActive: 2, MaxQueries: 1 << 20},
	}
	type outcome struct {
		run     *core.OwnerRun
		err     error
		skipped bool
	}
	outcomes := make([][]outcome, len(limits))
	var wg sync.WaitGroup
	for ti, lim := range limits {
		tenant := fmt.Sprintf("t%d", ti)
		s.Limit(tenant, lim)
		jobs := jobsOf(fleetStudy(t, 2, 60, 9))
		outcomes[ti] = make([]outcome, len(jobs))
		for ji, job := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := &outcomes[ti][ji]
				for {
					adm, err := s.Admit(tenant)
					var over *OverBudgetError
					switch {
					case errors.As(err, &over) && over.Reason == SkipActive:
						time.Sleep(time.Millisecond)
						continue
					case errors.As(err, &over) && over.Reason == SkipQueries:
						out.skipped = true
					case err != nil:
						out.err = err
					default:
						out.run, out.err = adm.Run(context.Background(), job)
					}
					return
				}
			}()
		}
	}
	wg.Wait()

	st := s.Stats()
	completed := 0
	for ti, outs := range outcomes {
		tenant := fmt.Sprintf("t%d", ti)
		queries := 0
		for ji, out := range outs {
			switch {
			case out.err != nil:
				t.Errorf("tenant %s job %d: %v", tenant, ji, out.err)
			case out.skipped:
				if limits[ti].MaxQueries == 0 {
					t.Errorf("tenant %s job %d skipped without a query budget", tenant, ji)
				}
			default:
				if d := diffRuns(out.run, want[out.run.Owner]); d != "" {
					t.Errorf("tenant %s owner %d differs from serial: %s", tenant, out.run.Owner, d)
				}
				queries += out.run.QueriedCount()
				completed++
			}
		}
		if got := st.Tenants[tenant].Queries; got != queries {
			t.Errorf("tenant %s accounted %d queries, its runs spent %d", tenant, got, queries)
		}
	}
	// t3 runs one job at a time, so its second admission sees the
	// first job's spend — more than the whole budget.
	if !outcomes[3][1].skipped && !outcomes[3][0].skipped {
		t.Errorf("serialized query-budgeted tenant ran both jobs: %+v", st.Tenants["t3"])
	}
	if st.Active != 0 || st.Completed != completed {
		t.Errorf("stats after drain = %+v, want 0 active and %d completed", st, completed)
	}
}

// TestFleetObservability: a per-job observer installed through
// Job.Configure sees the job's whole run, and every event carries the
// job's tenant and owner — so per-job traces out of a shared scheduler
// stay attributable.
func TestFleetObservability(t *testing.T) {
	s := newTestScheduler(t, 4)
	defer s.Close()
	metrics := &obs.Metrics{}
	type traced struct {
		tenant string
		owner  graph.UserID
		ring   *obs.Ring
	}
	var all []traced
	for _, tenant := range []string{"t0", "t1"} {
		jobs := jobsOf(fleetStudy(t, 3, 120, 7))
		for i := range jobs {
			ring := obs.NewRing(1 << 13)
			all = append(all, traced{tenant, jobs[i].Owner, ring})
			jobs[i].Configure = func(c *core.Config) {
				c.Observer = ring
				c.Metrics = metrics
			}
		}
		if _, errs := runAll(context.Background(), t, s, tenant, jobs); errors.Join(errs...) != nil {
			t.Fatal(errors.Join(errs...))
		}
	}
	for _, tr := range all {
		if tr.ring.Dropped() != 0 {
			t.Fatalf("tenant %s owner %d: ring dropped %d events", tr.tenant, tr.owner, tr.ring.Dropped())
		}
		events := tr.ring.Events()
		if len(events) < 2 || events[0].Kind != obs.KindRunStart || events[len(events)-1].Kind != obs.KindRunEnd {
			t.Fatalf("tenant %s owner %d: trace is not one run.start..run.end block (%d events)", tr.tenant, tr.owner, len(events))
		}
		for _, ev := range events {
			if ev.Tenant != tr.tenant || ev.Owner != int64(tr.owner) {
				t.Fatalf("tenant %s owner %d: event attributed to (%q, %d): %+v", tr.tenant, tr.owner, ev.Tenant, ev.Owner, ev)
			}
		}
	}
	if got := metrics.Runs.Load(); got != uint64(len(all)) {
		t.Fatalf("Metrics.Runs = %d, want %d", got, len(all))
	}
}

// TestFleetCancellation: jobs whose context is canceled before they
// start either fail while queued or degrade into partial runs — never
// a complete run, never a hang — and release their admissions.
func TestFleetCancellation(t *testing.T) {
	s := newTestScheduler(t, 2)
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := append(jobsOf(fleetStudy(t, 4, 120, 2)), jobsOf(fleetStudy(t, 4, 120, 2))...)
	runs, errs := runAll(ctx, t, s, "a", jobs)
	for i, run := range runs {
		if errs[i] == nil && !run.Partial {
			t.Fatalf("job %d: complete run under canceled ctx", i)
		}
	}
	if st := s.Stats(); st.Active != 0 {
		t.Fatalf("Active = %d after cancellation, want 0", st.Active)
	}
}
