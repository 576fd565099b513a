package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// slots are the end-to-end metrics of BENCHMARK.json. Every workload
// reports every slot; each workload maps its own named figures onto
// them (see README.md, "End-to-end metrics").
var slots = []struct{ name, unit string }{
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"step_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// layerSpec lists every per-layer metric of a traced run, with its
// unit, in output order. A layer a workload does not exercise reads 0.
var layerSpec = []struct{ name, unit string }{
	{"server.answers_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"server.store_put_ms", "ms"},
	{"server.store_puts", "count"},
	{"server.updates_ms", "ms"},
	{"server.stats_ms", "ms"},
	{"client.send_lag_ms", "ms"},
	{"core.run_ms", "ms"},
	{"core.self_ms", "ms"},
	{"graph.strangers_ms", "ms"},
	{"cluster.pools_ms", "ms"},
	{"cluster.weights_ms", "ms"},
	{"cluster.pools", "count"},
	{"cluster.largest_pool", "count"},
	{"cluster.weight_mb", "MB"},
	{"cluster.cache_hit_rate", "share"},
	{"classify.solve_ms", "ms"},
	{"classify.solve_tail_ms", "ms"},
	{"classify.solves", "count"},
	{"classify.iters_per_solve", "count"},
	{"classify.cap_hits", "count"},
	{"classify.sweep_cells", "count"},
	{"active.queries", "count"},
	{"active.rounds", "count"},
	{"active.annotator_ms", "ms"},
	{"delta.apply_ms", "ms"},
	{"graph.snapshot_ms", "ms"},
	{"delta.dirty_ms", "ms"},
	{"delta.revise_ms", "ms"},
	{"delta.reuse_share", "share"},
	{"delta.pools_rerun", "count"},
	{"ldp.build_ms", "ms"},
	{"ldp.report_ms", "ms"},
	{"ldp.report_tail_ms", "ms"},
	{"ldp.replay_share", "share"},
	{"ldp.refusals", "count"},
	{"trace.step_overhead_ms", "ms"},
	{"trace.p50_overhead_ms", "ms"},
}

// figure is one named end-to-end measurement.
type figure struct {
	name  string
	value float64
	unit  string
	n     int     // samples behind the value; 0 when not a sample statistic
	pct   float64 // the percentile it reports; 0 when not a percentile
	slot  string  // the BENCHMARK.json slot it fills; "" when printed only
}

// latencyFigure is the q-th percentile of a latency sample in ms.
func latencyFigure(name string, vals []float64, q float64, slot string) figure {
	return figure{name: name, value: percentile(vals, q), unit: "ms", n: len(vals), pct: q, slot: slot}
}

// phase is one stage of a run with its operation counts.
type phase struct {
	name string
	tally
}

// result is everything one run reports.
type result struct {
	workload   string
	trace      bool
	conditions map[string]any
	phases     []phase
	figures    []figure
	layers     map[string]float64
	failures   []string // failed correctness checks and failed operations, for the log
}

func newResult(o options) *result {
	return &result{
		workload: o.workload,
		trace:    o.trace,
		conditions: map[string]any{
			"workload": o.workload,
			"seed":     o.seed,
			"seconds":  o.seconds.Seconds(),
			"trace":    o.trace,
		},
		layers: map[string]float64{},
	}
}

// addPhase appends a phase's counts.
func (r *result) addPhase(name string, t tally) {
	r.phases = append(r.phases, phase{name: name, tally: t})
}

// fail records a failure message for the log.
func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// total sums every phase's counts.
func (r *result) total() tally {
	var t tally
	for _, p := range r.phases {
		t.add(p.tally)
	}
	return t
}

// correct reports whether every operation and check succeeded.
func (r *result) correct() bool {
	return len(r.failures) == 0 && r.total().failed == 0
}

// line is the machine-readable last line of a run.
type line struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

// lineMetric is one metric of the last line.
type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary builds the last line: the end-to-end slots on an untraced
// run, the per-layer metrics on a traced one.
func (r *result) summary() (line, error) {
	t := r.total()
	out := line{Correct: r.correct(), Attempted: t.attempted, Failed: t.failed, Metrics: map[string]lineMetric{}}
	put := func(name, unit string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s measured no value for metric %s", r.workload, name)
		}
		out.Metrics[name] = lineMetric{Value: v, Unit: unit}
		return nil
	}
	if r.trace {
		for _, l := range layerSpec {
			if err := put(l.name, l.unit, r.layers[l.name]); err != nil {
				return out, err
			}
		}
		return out, nil
	}
	for _, s := range slots {
		for _, f := range r.figures {
			if f.slot == s.name {
				if err := put(s.name, s.unit, f.value); err != nil {
					return out, err
				}
			}
		}
		if _, ok := out.Metrics[s.name]; !ok {
			return out, fmt.Errorf("workload %s fills no figure for metric %s", r.workload, s.name)
		}
	}
	return out, nil
}

// write prints the human-readable report, the conditions line and, as
// the last line, the JSON summary.
func (r *result) write(w io.Writer) error {
	fmt.Fprintf(w, "sightbench %s\n", r.workload)
	cond, err := json.Marshal(r.conditions)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "conditions %s\n", cond)
	for _, p := range r.phases {
		fmt.Fprintf(w, "phase %-8s attempted %6d  succeeded %6d  failed %d\n",
			p.name, p.attempted, p.attempted-p.failed, p.failed)
	}
	t := r.total()
	fmt.Fprintf(w, "metric %-24s %12.6g %-6s attempted %d\n", "failed_share", t.failedShare(), "share", t.attempted)
	for _, f := range r.figures {
		fmt.Fprintf(w, "metric %-24s %12.6g %-6s", f.name, f.value, f.unit)
		if f.n > 0 {
			fmt.Fprintf(w, " n %d", f.n)
		}
		if f.pct > 0 {
			fmt.Fprintf(w, " p%g", f.pct)
			if !supports(f.n, f.pct) {
				fmt.Fprintf(w, " (under-sampled: %d beyond, want %d)", f.n-rankOf(f.n, f.pct), minBeyond)
			}
		}
		if f.slot != "" {
			fmt.Fprintf(w, " -> %s", f.slot)
		}
		fmt.Fprintln(w)
	}
	if r.trace {
		for _, l := range layerSpec {
			fmt.Fprintf(w, "layer  %-24s %12.6g %s\n", l.name, r.layers[l.name], l.unit)
		}
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	sum, err := r.summary()
	if err != nil {
		return err
	}
	b, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
