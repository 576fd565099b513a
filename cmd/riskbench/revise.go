package main

// Revise benchmarks. Incremental and advise modes run the same trial:
// run one owner to completion, apply an update batch, then time a full
// recompute of the post-batch graph against delta.Revise riding the
// prior run, and require the two byte-identical. Incremental mode
// applies churn batches to the owner's own graph; advise mode applies
// the one edge an accepted friendship request would add, to a clone.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	sight "sightrisk"
	"sightrisk/internal/active"
	"sightrisk/internal/core"
	"sightrisk/internal/delta"
	"sightrisk/internal/graph"
	"sightrisk/internal/parallel"
	"sightrisk/internal/profile"
	"sightrisk/internal/synthetic"
)

// reviseBench is the BENCH_incremental.json and BENCH_advise.json
// document.
type reviseBench[R any] struct {
	GeneratedAt string `json:"generated_at"`
	Seed        int64  `json:"seed"`
	Workers     int    `json:"workers"`
	Rows        []R    `json:"rows"`
}

// incrRow is one (network size, delta size) measurement: a batch of
// that many updates applied to the owner's network, then the report
// recomputed from scratch and via delta.Revise against the prior run.
type incrRow struct {
	network
	DeltaSize int     `json:"delta_size"`
	FullMS    float64 `json:"full_ms"`
	IncrMS    float64 `json:"incremental_ms"`
	outcome
}

// adviseRow is one network-size measurement of the pre-acceptance
// counterfactual: the candidate edge applied to a clone of the owner's
// graph, then the counterfactual report computed from scratch and via
// delta.Revise against the owner's current run.
type adviseRow struct {
	network
	Candidate int64   `json:"candidate"`
	Verdict   string  `json:"verdict"`
	FullMS    float64 `json:"full_ms"`
	CounterMS float64 `json:"counterfactual_ms"`
	outcome
}

// network opens every revise row: the owner's network size.
type network struct {
	Strangers int `json:"strangers"`
	Nodes     int `json:"nodes"`
}

// outcome closes every revise row: what the revision bought and reused.
type outcome struct {
	Speedup     float64 `json:"speedup"`
	PoolsTotal  int     `json:"pools_total"`
	PoolsReused int     `json:"pools_reused"`
	PoolsRerun  int     `json:"pools_rerun"`
	ByteIdent   bool    `json:"byte_identical"`
}

// trial is one revise measurement.
type trial struct {
	full, revised time.Duration // full is 0 when the reference was given
	ref, rev      *core.OwnerRun
	stats         delta.Stats
	diff          string // core.DiffRuns(ref, rev); "" when byte-identical
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func (t trial) outcome() outcome {
	o := outcome{PoolsTotal: t.stats.PoolsTotal, PoolsReused: t.stats.PoolsReused, PoolsRerun: t.stats.PoolsRerun, ByteIdent: t.diff == ""}
	if t.revised > 0 {
		o.Speedup = ms(t.full) / ms(t.revised)
	}
	return o
}

// reviseTrial computes o's report on the post-batch graph g twice —
// from scratch (skipped when ref already holds that recompute) and via
// delta.Revise against prior — timing both, and diffs the two.
func reviseTrial(cfg core.Config, g *graph.Graph, store *profile.Store, o *synthetic.Owner, prior, ref *core.OwnerRun, batch delta.Batch) (trial, error) {
	ctx := context.Background()
	ann := active.Infallible(o)
	t := trial{ref: ref}
	if ref == nil {
		start := time.Now()
		run, err := core.New(cfg).RunOwner(ctx, g, store, o.ID, ann, o.Confidence)
		if err != nil {
			return t, fmt.Errorf("full recompute: %w", err)
		}
		t.full, t.ref = time.Since(start), run
	}
	start := time.Now()
	rev, st, err := delta.Revise(ctx, cfg, g, store, o.ID, ann, o.Confidence, prior, batch)
	if err != nil {
		return t, fmt.Errorf("revise: %w", err)
	}
	t.revised, t.rev, t.stats = time.Since(start), rev, st
	t.diff = core.DiffRuns(t.ref, rev)
	return t, nil
}

// pinWorkers re-runs base's revision at workers 1, 2 and 4 and returns
// the first divergence from base's full recompute — in the run, or in
// its rendered bytes when render is set ("" when none diverges).
func pinWorkers(base trial, g *graph.Graph, store *profile.Store, o *synthetic.Owner, prior *core.OwnerRun, batch delta.Batch, render func(*core.OwnerRun) ([]byte, error)) (string, error) {
	var want []byte
	if render != nil {
		var err error
		if want, err = render(base.ref); err != nil {
			return "", err
		}
	}
	for _, w := range []int{1, 2, 4} {
		cfg := core.DefaultConfig()
		cfg.Workers = w
		t, err := reviseTrial(cfg, g, store, o, prior, base.ref, batch)
		if err != nil {
			return "", fmt.Errorf("workers=%d: %w", w, err)
		}
		if t.diff != "" {
			return fmt.Sprintf("workers=%d: revision diverges from full recompute: %s", w, t.diff), nil
		}
		if render != nil {
			got, err := render(t.rev)
			if err != nil {
				return "", err
			}
			if !bytes.Equal(got, want) {
				return fmt.Sprintf("workers=%d: advise assessment bytes diverge", w), nil
			}
		}
	}
	return "", nil
}

// incrBatch builds a batch of n updates inside the owner's 2-hop view:
// stranger profile churn (pool-content changes), stranger–friend edges
// (NS drift) and — in larger batches — brand-new strangers. Every
// batch is dirty for the owner, so the measured revision always walks
// the pipeline: the speedup comes from pool-level reuse, not from the
// owner-level no-op path.
//
// Churned strangers come from the prior run's last pools. Pool order
// follows the NSG group and Squeezer cluster order, and reuse is
// index-sensitive (a pool's session seed depends on its position), so
// a change early in that order cascades re-runs through everything
// behind it, while a change near the end invalidates only the tail —
// the steady-state shape of a single profile edit among thousands of
// strangers. Batches with newcomers (n >= 3) still pay the cascade:
// a new stranger lands in a low-similarity group near the front.
func incrBatch(prior *core.OwnerRun, g *graph.Graph, owner graph.UserID, n, round int) delta.Batch {
	var late []graph.UserID
	for i := len(prior.Pools) - 1; i >= 0 && len(late) < 2*n+4; i-- {
		late = append(late, prior.Pools[i].Pool.Members...)
	}
	friends := g.Friends(owner)
	b := make(delta.Batch, 0, n)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			s := late[(i*7+round*13)%len(late)]
			b = append(b, delta.Update{Kind: delta.ProfileSet, A: s,
				Attr: string(profile.AttrLocale), Value: fmt.Sprintf("zz_%d_%d", round, i)})
		case 1:
			s := late[(i*11+round*17)%len(late)]
			f := friends[i%len(friends)]
			b = append(b, delta.Update{Kind: delta.EdgeAdd, A: s, B: f})
		default:
			nc := graph.UserID(900000 + round*1000 + i)
			b = append(b,
				delta.Update{Kind: delta.NodeAdd, A: nc},
				delta.Update{Kind: delta.EdgeAdd, A: nc, B: friends[(i/3)%len(friends)]},
				delta.Update{Kind: delta.ProfileSet, A: nc,
					Attr: string(profile.AttrGender), Value: synthetic.GenderFemale})
		}
	}
	return b
}

// adviseCandidate picks the request's candidate deterministically: the
// best-connected stranger, ties broken by smallest ID. Triadic closure
// makes this the modal friend request — the people who actually send
// one are the 2-hop neighbours with the most mutual friends, not the
// periphery. It is also the case the delta engine is built for: a
// well-connected candidate sits in the small high-similarity pools, so
// accepting them perturbs little of the pool partition, whereas a leaf
// stranger lives in the large low-similarity pools and its counterfactual
// approaches a full recompute (the bench reports pools reused so that
// cost model stays visible).
func adviseCandidate(g *graph.Graph, prior *core.OwnerRun) graph.UserID {
	best := prior.Strangers[0]
	for _, s := range prior.Strangers[1:] {
		if d, bd := g.Degree(s), g.Degree(best); d > bd || (d == bd && s < best) {
			best = s
		}
	}
	return best
}

// counterfactual builds the post-acceptance graph: a clone of g with
// the (owner, candidate) edge added, plus the batch describing it.
func counterfactual(g *graph.Graph, store *profile.Store, owner, cand graph.UserID) (*graph.Graph, delta.Batch, error) {
	gc := g.Clone()
	batch := delta.Batch{{Kind: delta.EdgeAdd, A: owner, B: cand}}
	if err := batch.Apply(gc, store); err != nil {
		return nil, nil, err
	}
	return gc, batch, nil
}

// assess renders the (before, after) run pair as the advise assessment
// /v1/advise would serve for cand.
func assess(before, after *core.OwnerRun, cand graph.UserID) (*sight.FriendRequestAssessment, error) {
	policy := sight.BuildAccessPolicy(sight.DefaultSensitivity())
	return policy.AssessRequest(sight.AssembleReport(before), sight.AssembleReport(after), cand)
}

// assessBytes is the advise determinism probe: two runs that would
// serve different /v1/advise bodies produce different bytes here.
func assessBytes(prior *core.OwnerRun, cand graph.UserID) func(*core.OwnerRun) ([]byte, error) {
	return func(after *core.OwnerRun) ([]byte, error) {
		a, err := assess(prior, after, cand)
		if err != nil {
			return nil, err
		}
		return json.Marshal(a)
	}
}

// priorRun generates the one-owner study of n strangers and runs the
// owner to completion: the prior run every revision rides.
func priorRun(cfg core.Config, n int, seed int64) (*synthetic.Study, *synthetic.Owner, *core.OwnerRun, error) {
	study, o, err := egoStudy(n, seed)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("generate %d: %w", n, err)
	}
	prior, err := core.New(cfg).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("baseline at %d: %w", n, err)
	}
	return study, o, prior, nil
}

// runIncrementalBench is incremental mode: per network size it runs
// the owner once to completion, then for each delta size applies a
// fresh update batch and runs the revise trial on the post-batch
// graph, failing on the first revision that differs from its full
// recompute.
func runIncrementalBench(o opts) (any, error) {
	sizes, err := parseList("-sizes", o.sizes, atLeast(50))
	if err != nil {
		return nil, err
	}
	deltas, err := parseList("-incr-deltas", o.deltas, atLeast(1))
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Workers = parallel.ResolveWorkers(o.workers)
	bench := reviseBench[incrRow]{GeneratedAt: time.Now().UTC().Format(time.RFC3339), Seed: o.seed, Workers: cfg.Workers}
	fmt.Printf("riskbench: incremental sweep sizes=%v deltas=%v seed=%d workers=%d\n", sizes, deltas, o.seed, cfg.Workers)
	fmt.Printf("%10s %8s %7s %12s %12s %9s %7s %7s %7s %6s\n",
		"strangers", "nodes", "delta", "full", "incremental", "speedup", "pools", "reused", "rerun", "ident")

	for _, n := range sizes {
		study, owner, prior, err := priorRun(cfg, n, o.seed)
		if err != nil {
			return nil, err
		}
		for round, d := range deltas {
			batch := incrBatch(prior, study.Graph, owner.ID, d, round)
			if err := batch.Validate(); err != nil {
				return nil, err
			}
			if err := batch.Apply(study.Graph, study.Profiles); err != nil {
				return nil, err
			}
			t, err := reviseTrial(cfg, study.Graph, study.Profiles, owner, prior, nil, batch)
			if err != nil {
				return nil, fmt.Errorf("at %d/%d: %w", n, d, err)
			}
			if t.diff != "" {
				return nil, fmt.Errorf("incremental at %d strangers / %d updates: revised run differs from full recompute: %s", n, d, t.diff)
			}
			row := incrRow{network{n, study.Graph.NumNodes()}, len(batch), ms(t.full), ms(t.revised), t.outcome()}
			fmt.Printf("%10d %8d %7d %12s %12s %8.1fx %7d %7d %7d %6s\n",
				n, row.Nodes, row.DeltaSize, t.full.Round(time.Millisecond), t.revised.Round(time.Millisecond),
				row.Speedup, row.PoolsTotal, row.PoolsReused, row.PoolsRerun, "yes")
			bench.Rows = append(bench.Rows, row)
			prior = t.ref // the next batch revises against the post-batch state
		}
	}
	return bench, nil
}

// runAdviseBench is advise mode: per network size it runs the owner
// once to completion, picks a friendship-request candidate from the
// stranger list, and runs the revise trial on the counterfactual graph
// (candidate edge on a clone) — requiring the revision byte-identical
// to the full recompute, the advise assessment bytes identical at
// workers 1, 2 and 4, and the revision at least 10x faster at 10^4
// strangers and above.
func runAdviseBench(o opts) (any, error) {
	sizes, err := parseList("-sizes", o.sizes, atLeast(50))
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Workers = parallel.ResolveWorkers(o.workers)
	bench := reviseBench[adviseRow]{GeneratedAt: time.Now().UTC().Format(time.RFC3339), Seed: o.seed, Workers: cfg.Workers}
	fmt.Printf("riskbench: advise sweep sizes=%v seed=%d workers=%d\n", sizes, o.seed, cfg.Workers)
	fmt.Printf("%10s %8s %10s %8s %12s %14s %9s %7s %7s %6s\n",
		"strangers", "nodes", "candidate", "verdict", "full", "counterfactual", "speedup", "pools", "reused", "ident")

	for _, n := range sizes {
		study, owner, prior, err := priorRun(cfg, n, o.seed)
		if err != nil {
			return nil, err
		}
		cand := adviseCandidate(study.Graph, prior)
		gc, batch, err := counterfactual(study.Graph, study.Profiles, owner.ID, cand)
		if err != nil {
			return nil, err
		}
		t, err := reviseTrial(cfg, gc, study.Profiles, owner, prior, nil, batch)
		if err != nil {
			return nil, fmt.Errorf("at %d: %w", n, err)
		}
		if t.diff != "" {
			return nil, fmt.Errorf("advise at %d strangers: counterfactual revision differs from full recompute: %s", n, t.diff)
		}
		detail, err := pinWorkers(t, gc, study.Profiles, owner, prior, batch, assessBytes(prior, cand))
		if err != nil {
			return nil, fmt.Errorf("at %d: %w", n, err)
		}
		if detail != "" {
			return nil, fmt.Errorf("advise at %d strangers: %s", n, detail)
		}
		a, err := assess(prior, t.ref, cand)
		if err != nil {
			return nil, err
		}

		row := adviseRow{network{n, study.Graph.NumNodes()}, int64(cand), a.Verdict, ms(t.full), ms(t.revised), t.outcome()}
		fmt.Printf("%10d %8d %10d %8s %12s %14s %8.1fx %7d %7d %6s\n",
			n, row.Nodes, cand, a.Verdict, t.full.Round(time.Millisecond), t.revised.Round(time.Millisecond),
			row.Speedup, row.PoolsTotal, row.PoolsReused, "yes")
		bench.Rows = append(bench.Rows, row)
		if n >= 10000 && row.Speedup < 10 {
			return nil, fmt.Errorf("advise at %d strangers: counterfactual speedup %.1fx is below the required 10x", n, row.Speedup)
		}
	}
	return bench, nil
}

// auditRevise is the incremental (advise false) and advise audit leg:
// a 300-stranger owner, one mixed update batch applied to its graph or
// one candidate edge applied to a clone, the revise trial, then the
// revision pinned at workers 1, 2 and 4 (with the advise assessment
// bytes for advise). Returns the pool count per run and a divergence
// description ("" on pass).
func auditRevise(seed int64, advise bool) (int, string, error) {
	cfg := core.DefaultConfig()
	study, o, prior, err := priorRun(cfg, 300, seed)
	if err != nil {
		return 0, "", err
	}
	g := study.Graph
	var batch delta.Batch
	var render func(*core.OwnerRun) ([]byte, error)
	if advise {
		cand := adviseCandidate(g, prior)
		g, batch, err = counterfactual(g, study.Profiles, o.ID, cand)
		render = assessBytes(prior, cand)
	} else {
		batch = incrBatch(prior, g, o.ID, 6, 0)
		err = batch.Apply(g, study.Profiles)
	}
	if err != nil {
		return 0, "", err
	}
	base, err := reviseTrial(cfg, g, study.Profiles, o, prior, nil, batch)
	if err != nil {
		return 0, "", err
	}
	pools := base.stats.PoolsTotal
	if base.diff != "" {
		return pools, "revision diverges from full recompute: " + base.diff, nil
	}
	if !advise && base.stats.PoolsReused == 0 {
		return pools, "no pools reused — the incremental path was not exercised", nil
	}
	detail, err := pinWorkers(base, g, study.Profiles, o, prior, batch, render)
	return pools, detail, err
}
