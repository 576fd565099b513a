// Command riskbench regenerates every table and figure of the paper's
// evaluation (Section IV) on the synthetic study population, prints
// each next to the paper's reported values, and runs the benchmarks
// behind the checked-in BENCH_*.json files.
//
// Usage:
//
//	riskbench [-mode paper|audit|fleet|serve|cluster|scale|incremental|advise|ldp]
//	          [-seed N] [-workers N] [-scale small|medium|full] [-out FILE] [-sizes N,...]
//	  paper:       [-only fig4,table1,...] [-rounds N] [-ablations] [-times=false]
//	               [-fault-prob P] [-fault-latency D] [-fault-abandon N] [-fault-seed N] [-fault-retries N]
//	               [-trace-out FILE] [-metrics-out FILE]
//	  fleet:       [-tenants N] [-tenant-rtt D]
//	  cluster:     [-nodes 1,2,4]
//	  scale:       [-scale-owners N]
//	  incremental: [-incr-deltas 1,10,100]
//	  ldp:         [-ldp-eps 0.5,1,2,4] [-ldp-trials N]
//
// A flag that the chosen mode does not read is an error.
//
// Modes:
//
//   - paper (default) prints the paper's tables. The full scale
//     matches the paper's population (47 owners, mean 3,661 strangers
//     each, ~172k stranger profiles) and takes a few minutes; small
//     runs in seconds. The -fault-* flags wrap every owner's annotator
//     in a seeded fault injector (transient failures, latency,
//     mid-session abandonment); the "faults" step reports the retry
//     overhead next to a clean baseline.
//   - audit runs the robustness matrix twice per topology with the
//     event auditor attached, then the snapfile, cluster-failover,
//     incremental, advise and LDP legs, and reports the first
//     divergence.
//   - fleet replicates the study for -tenants tenants, runs every owner
//     through fleet.Scheduler (the scheduler sightd serves from, every
//     question paying -tenant-rtt), re-runs the same jobs one after
//     another, and records throughput, per-tenant job latency and
//     micro-benchmarks.
//   - serve runs every owner through an in-process sightd over HTTP,
//     once with the stored annotator and once with the owner answering
//     long-polled questions, and records endpoint and round-trip cost.
//   - cluster runs every owner through an in-process N-replica sightd
//     per -nodes count over one shared checkpoint store, killing one
//     replica mid-sweep when N > 1, and records recovery latency.
//   - scale generates a SNAP-Facebook-like graph per -sizes population
//     straight into CSR, packs it into a snapshot file, measures mmap
//     open against JSON load and runs the benchmark owners off the
//     mapped pages. Sizes that do not fit in available memory are
//     skipped with a message.
//   - incremental applies update batches of each -incr-deltas size to
//     a one-owner network per -sizes count and times a full recompute
//     against delta.Revise.
//   - advise evaluates one pre-acceptance friendship request per -sizes
//     count by full counterfactual recompute and by delta.Revise, and
//     requires the revision to be at least 10x faster at 10^4 strangers
//     and above.
//   - ldp sweeps ε over -ldp-eps on one -sizes population and measures
//     the error of every /v1/stats statistic under visibility-aware
//     noise against the all-edge baseline over -ldp-trials epochs.
//
// Every benchmark mode checks its gates before anything is written:
// reports byte-identical to the serial or full-recompute run (and, for
// advise, at workers 1, 2 and 4), the advise speedup, LDP dominance in
// every cell plus seeded reproducibility. A failed gate exits non-zero
// and leaves the -out file (default BENCH_<mode>.json) as it was.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"sightrisk/internal/dataset"
	"sightrisk/internal/faults"
	"sightrisk/internal/synthetic"
)

// opts carries every flag value to the mode that reads it.
type opts struct {
	scale   string
	seed    int64
	workers int
	out     string
	sizes   string

	only         string
	rounds       int
	ablations    bool
	times        bool
	fault        faults.Config
	faultRetries int
	traceOut     string
	metricsOut   string

	tenants     int
	tenantRTT   time.Duration
	nodes       string
	scaleOwners int
	deltas      string
	eps         string
	trials      int
}

// mode is one thing riskbench can run. A mode returns the document to
// write to -out (nil for none) or the error that failed it.
type mode struct {
	name  string
	run   func(opts) (any, error)
	sizes string // default -sizes; "" when the mode takes no sizes
	flags string // the mode-specific flags it reads
}

var modes = []mode{
	{name: "paper", run: runPaper, flags: "scale only rounds ablations times fault-prob fault-latency fault-abandon fault-seed fault-retries trace-out metrics-out"},
	{name: "audit", run: runAudit},
	{name: "fleet", run: runFleetBench, flags: "out scale tenants tenant-rtt"},
	{name: "serve", run: runServeBench, flags: "out scale"},
	{name: "cluster", run: runClusterBench, flags: "out scale nodes"},
	{name: "scale", run: runScaleBench, sizes: "10000,100000,316000,1000000", flags: "out sizes scale-owners"},
	{name: "incremental", run: runIncrementalBench, sizes: "10000,100000", flags: "out sizes incr-deltas"},
	{name: "advise", run: runAdviseBench, sizes: "2000,10000", flags: "out sizes"},
	{name: "ldp", run: runLDPBench, sizes: "2000", flags: "out sizes ldp-eps ldp-trials"},
}

func main() {
	name := flag.String("mode", "paper", "what to run: paper, audit, fleet, serve, cluster, scale, incremental, advise or ldp")
	seed := flag.Int64("seed", 1, "study generation seed")
	workers := flag.Int("workers", 0, "concurrent per-pool workers in the risk engine (0 = one per CPU, 1 = pools one after another); server workers in serve and cluster modes")
	scale := flag.String("scale", "small", "paper, fleet, serve and cluster modes: study scale: small, medium or full")
	out := flag.String("out", "", "benchmark modes: where to write the JSON, once every gate passed (default BENCH_<mode>.json)")
	sizes := flag.String("sizes", "", "scale, incremental, advise and ldp modes: comma-separated population sizes (nodes for scale, strangers otherwise; ldp takes one); default 10000,100000,316000,1000000 for scale, 10000,100000 for incremental, 2000,10000 for advise, 2000 for ldp")
	only := flag.String("only", "", "comma-separated experiment ids (fig4 fig5 fig6 fig7 headline table1 table2 table3 table4 table5 contrast dynamics robustness faults); empty = all")
	rounds := flag.Int("rounds", 8, "x-axis length for fig5/fig6")
	ablations := flag.Bool("ablations", false, "also run the DESIGN.md §5 ablations (classifiers, alpha, beta, stopping rule, weight exponent, Squeezer weights, pool strategy)")
	times := flag.Bool("times", true, "report per-stage wall time")
	faultProb := flag.Float64("fault-prob", 0, "inject transient annotator failures with this per-query probability")
	faultLatency := flag.Duration("fault-latency", 0, "inject this much latency into every annotator answer")
	faultAbandon := flag.Int("fault-abandon", 0, "owners abandon after this many answers per run (0 = never)")
	faultSeed := flag.Int64("fault-seed", 7, "fault-injection seed")
	faultRetries := flag.Int("fault-retries", 10, "retry attempts configured when -fault-prob is set")
	traceOut := flag.String("trace-out", "", "write the structured run-event stream (JSONL, one event per line) to this file")
	metricsOut := flag.String("metrics-out", "", "write the per-stage metrics snapshot (JSON) to this file at exit")
	tenants := flag.Int("tenants", 8, "fleet mode: tenant replicas of the study")
	tenantRTT := flag.Duration("tenant-rtt", 20*time.Millisecond, "fleet mode: simulated annotator round-trip every question pays, on both the scheduler and the serial baseline; 0 disables it")
	nodes := flag.String("nodes", "1,2,4", "cluster mode: comma-separated replica counts")
	scaleOwners := flag.Int("scale-owners", 4, "scale mode: benchmark owners per population size")
	deltas := flag.String("incr-deltas", "1,10,100", "incremental mode: comma-separated update-batch sizes")
	eps := flag.String("ldp-eps", "0.5,1,2,4", "ldp mode: comma-separated ε values")
	trials := flag.Int("ldp-trials", 200, "ldp mode: noise epochs per (ε, noise mode) cell")
	flag.Parse()

	o := opts{
		scale: *scale, seed: *seed, workers: *workers, out: *out, sizes: *sizes,
		only: *only, rounds: *rounds, ablations: *ablations, times: *times,
		fault:        faults.Config{Seed: *faultSeed, FailProb: *faultProb, Latency: *faultLatency, AbandonAfter: *faultAbandon},
		faultRetries: *faultRetries, traceOut: *traceOut, metricsOut: *metricsOut,
		tenants: *tenants, tenantRTT: *tenantRTT, nodes: *nodes, scaleOwners: *scaleOwners,
		deltas: *deltas, eps: *eps, trials: *trials,
	}
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	m, err := resolve(*name, set, &o)
	if err == nil {
		err = run(m, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "riskbench:", err)
		os.Exit(1)
	}
}

// resolve looks up the named mode, rejects any set flag the mode does
// not read, and fills in the mode's -out and -sizes defaults.
func resolve(name string, set []string, o *opts) (mode, error) {
	i := slices.IndexFunc(modes, func(m mode) bool { return m.name == name })
	if i < 0 {
		return mode{}, fmt.Errorf("unknown -mode %q", name)
	}
	m := modes[i]
	reads := strings.Fields("mode seed workers " + m.flags)
	for _, f := range set {
		if !slices.Contains(reads, f) {
			return m, fmt.Errorf("-%s does not apply to -mode %s", f, m.name)
		}
	}
	if o.out == "" {
		o.out = "BENCH_" + m.name + ".json"
	}
	if o.sizes == "" {
		o.sizes = m.sizes
	}
	return m, nil
}

// run executes m and writes its document only once every gate has
// passed: a mode that returns an error leaves o.out untouched.
func run(m mode, o opts) error {
	doc, err := m.run(o)
	if err != nil {
		return err
	}
	if doc == nil {
		return nil
	}
	if err := writeBench(o.out, doc); err != nil {
		return err
	}
	fmt.Printf("riskbench: wrote %s\n", o.out)
	return nil
}

// writeBench writes doc as indented JSON with a trailing newline, the
// format of every checked-in BENCH_*.json.
func writeBench(path string, doc any) error {
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// parseList parses a comma-separated flag value, rejecting the list at
// its first entry that does not parse or fails valid.
func parseList[T int | float64](name, spec string, valid func(T) bool) ([]T, error) {
	var out []T
	for _, f := range strings.Split(spec, ",") {
		var v T
		var err error
		switch p := any(&v).(type) {
		case *int:
			*p, err = strconv.Atoi(strings.TrimSpace(f))
		case *float64:
			*p, err = strconv.ParseFloat(strings.TrimSpace(f), 64)
		}
		if err != nil || !valid(v) {
			return nil, fmt.Errorf("bad %s entry %q", name, f)
		}
		out = append(out, v)
	}
	return out, nil
}

// atLeast accepts integers no smaller than min.
func atLeast(min int) func(int) bool {
	return func(n int) bool { return n >= min }
}

func studyConfig(scale string, seed int64) (synthetic.StudyConfig, error) {
	var cfg synthetic.StudyConfig
	switch scale {
	case "small":
		cfg = synthetic.SmallStudyConfig()
	case "medium":
		cfg = synthetic.DefaultStudyConfig()
		cfg.Owners = 12
		cfg.Ego.Strangers = 1200
	case "full":
		cfg = synthetic.DefaultStudyConfig()
	default:
		return cfg, fmt.Errorf("unknown scale %q", scale)
	}
	cfg.Seed = seed
	return cfg, nil
}

// studyDataset generates the study for cfg and the served dataset
// over it, with every owner's labels materialized.
func studyDataset(cfg synthetic.StudyConfig) (*synthetic.Study, *dataset.Dataset, error) {
	s, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		return nil, nil, err
	}
	return s, dataset.FromStudy(s, true), nil
}

// egoStudy generates a single-owner study with the given stranger
// count.
func egoStudy(strangers int, seed int64) (*synthetic.Study, *synthetic.Owner, error) {
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = 1
	cfg.Ego.Strangers = strangers
	cfg.Seed = seed
	s, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		return nil, nil, err
	}
	return s, s.Owners[0], nil
}
