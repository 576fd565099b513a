package main

// Paper mode (the default): every table and figure of the paper's
// Section IV evaluation, printed next to the paper's values.

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"sightrisk/internal/active"
	"sightrisk/internal/core"
	"sightrisk/internal/experiments"
	"sightrisk/internal/faults"
	"sightrisk/internal/obs"
	"sightrisk/internal/parallel"
	"sightrisk/internal/profile"
	"sightrisk/internal/stats"
	"sightrisk/internal/synthetic"
)

// runPaper is paper mode: generate the study for -scale, then print
// each -only step (every step when empty) and, with -ablations, the
// ablation suites.
func runPaper(o opts) (any, error) {
	start := time.Now()
	cfg, err := studyConfig(o.scale, o.seed)
	if err != nil {
		return nil, err
	}
	coreCfg := core.DefaultConfig()
	coreCfg.Workers = o.workers
	env, err := experiments.NewEnv(cfg, coreCfg)
	if err != nil {
		return nil, err
	}
	if o.metricsOut != "" {
		metrics := &obs.Metrics{}
		metrics.Publish("sightrisk")
		env.Cfg.Metrics = metrics
		defer func() {
			f, err := os.Create(o.metricsOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "riskbench:", err)
				return
			}
			defer f.Close()
			if err := metrics.WriteJSON(f); err != nil {
				fmt.Fprintln(os.Stderr, "riskbench: metrics:", err)
			}
		}()
	}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tracer := obs.NewTracer(f)
		env.Cfg.Observer = tracer
		defer func() {
			if err := tracer.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "riskbench: trace:", err)
			}
		}()
	}
	if fc := o.fault; fc.FailProb > 0 || fc.Latency > 0 || fc.AbandonAfter > 0 {
		if err := fc.Validate(); err != nil {
			return nil, err
		}
		if fc.FailProb > 0 {
			env.Cfg.Retry = active.RetryPolicy{
				MaxAttempts: o.faultRetries,
				BaseDelay:   time.Microsecond,
				MaxDelay:    10 * time.Microsecond,
			}
		}
		wrapped := 0
		env.Wrap = func(a active.FallibleAnnotator) active.FallibleAnnotator {
			cfg := fc
			cfg.Seed = fc.Seed + int64(wrapped)
			wrapped++
			inj, err := faults.Wrap(a, cfg)
			if err != nil {
				return a // validated above; unreachable
			}
			return inj
		}
		fmt.Printf("riskbench: fault injection on (prob=%g latency=%v abandon=%d seed=%d retries=%d)\n",
			fc.FailProb, fc.Latency, fc.AbandonAfter, fc.Seed, o.faultRetries)
	}
	stage := func(id string, since time.Time) {
		if o.times {
			fmt.Printf("riskbench: %-10s %10s  (workers=%d)\n", id, time.Since(since).Round(time.Millisecond), parallel.ResolveWorkers(o.workers))
		}
	}
	stage("generate", start)

	want := map[string]bool{}
	if o.only != "" {
		for _, id := range strings.Split(o.only, ",") {
			want[strings.TrimSpace(strings.ToLower(id))] = true
		}
	}
	enabled := func(id string) bool { return len(want) == 0 || want[id] }

	fmt.Printf("riskbench: scale=%s seed=%d owners=%d strangers=%d (mean %.0f/owner)\n\n",
		o.scale, o.seed, len(env.Study.Owners), env.Study.TotalStrangers(), env.Study.MeanStrangers())

	type step struct {
		id  string
		run func(*experiments.Env) error
	}
	steps := []step{
		{"fig4", printFig4},
		{"headline", printHeadline},
		{"fig5", func(e *experiments.Env) error { return printFig5(e, o.rounds) }},
		{"fig6", func(e *experiments.Env) error { return printFig6(e, o.rounds) }},
		{"fig7", printFig7},
		{"table1", printTable1},
		{"table2", printTable2},
		{"table3", printTable3},
		{"table4", printTable4},
		{"table5", printTable5},
		{"contrast", printContrast},
		{"dynamics", printDynamics},
		{"robustness", func(e *experiments.Env) error { return printRobustness(o.seed, o.workers) }},
		{"faults", printFaults},
	}
	for _, s := range steps {
		if !enabled(s.id) {
			continue
		}
		stepStart := time.Now()
		if err := s.run(env); err != nil {
			return nil, fmt.Errorf("%s: %w", s.id, err)
		}
		stage(s.id, stepStart)
	}

	if o.ablations {
		ablStart := time.Now()
		if err := printAblations(env); err != nil {
			return nil, fmt.Errorf("ablations: %w", err)
		}
		stage("ablations", ablStart)
	}
	stage("total", start)
	return nil, nil
}

// robustnessConfig is the population the robustness table and the
// determinism audit share. Robustness builds its own (smaller)
// populations per topology, so it always runs at a bounded scale
// regardless of -scale.
func robustnessConfig(seed int64, workers int) (synthetic.StudyConfig, core.Config) {
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = 6
	cfg.Seed = seed
	coreCfg := core.DefaultConfig()
	coreCfg.Workers = workers
	return cfg, coreCfg
}

func printContrast(e *experiments.Env) error {
	rows, err := experiments.PrivacyScoreContrast(e)
	if err != nil {
		return err
	}
	t := stats.NewTable("Privacy-score contrast — Liu & Terzi [29] privacy scores vs this paper's risk labels (§V related work, quantified)",
		"signal", "mean corr", "mean |corr|")
	for _, r := range rows {
		t.AddRow(r.Signal, fmtNaN(r.MeanCorr, "%+.3f"), fmtNaN(r.MeanAbsCorr, "%.3f"))
	}
	fmt.Println(t)
	return nil
}

func printRobustness(seed int64, workers int) error {
	rows, err := experiments.Robustness(robustnessConfig(seed, workers))
	if err != nil {
		return err
	}
	t := stats.NewTable("Robustness — headline results across friend-graph topologies",
		"topology", "group-1 share", "max NSG group", "exact match", "rounds", "labels/owner")
	for _, r := range rows {
		t.AddRow(r.Topology, stats.Pct(r.Group1Share), fmt.Sprintf("%d", r.MaxOccupiedGroup),
			stats.Pct(r.ExactMatch), fmtNaN(r.MeanRounds, "%.2f"), fmtNaN(r.MeanLabels, "%.1f"))
	}
	fmt.Println(t)
	return nil
}

func printFaults(e *experiments.Env) error {
	rows, err := experiments.FaultOverhead(e, []float64{0.05, 0.2}, active.RetryPolicy{})
	if err != nil {
		return err
	}
	t := stats.NewTable("Fault tolerance — retry overhead under injected annotator flakiness",
		"scenario", "owners", "labels/owner", "failures", "attempts", "partial", "elapsed")
	for _, r := range rows {
		t.AddRow(r.Scenario, fmt.Sprintf("%d", r.Owners), fmtNaN(r.MeanLabels, "%.1f"),
			fmt.Sprintf("%d", r.Failures), fmt.Sprintf("%d", r.Queries),
			fmt.Sprintf("%d", r.Partial), r.Elapsed.Round(time.Millisecond).String())
	}
	fmt.Println(t)
	return nil
}

func printDynamics(e *experiments.Env) error {
	// Dynamics mutates the study graph, so it runs last when enabled
	// alongside other experiments (steps list order) and only against
	// the first owner.
	rows, err := experiments.Dynamics(e, 0, 4, len(e.Study.Owners[0].Strangers()))
	if err != nil {
		return err
	}
	t := stats.NewTable("Dynamic graph — churn absorbed by on-the-fly pools (§III motivation)",
		"step", "edges added", "NSG migrations", "label changes", "labels asked", "exact match")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Step), fmt.Sprintf("%d", r.EdgesAdded),
			fmt.Sprintf("%d", r.Migrated), fmt.Sprintf("%d", r.LabelChanges),
			fmt.Sprintf("%d", r.LabelsRequested), stats.Pct(r.ExactMatch))
	}
	fmt.Println(t)
	return nil
}

func printAblations(env *experiments.Env) error {
	suites := []struct {
		title string
		run   func(*experiments.Env) ([]experiments.AblationResult, error)
	}{
		{"Ablation — classifier choice", experiments.AblationClassifiers},
		{"Ablation — pool strategy (NPP vs NSP)", experiments.AblationPoolStrategy},
		{"Ablation — α (network similarity groups)", func(e *experiments.Env) ([]experiments.AblationResult, error) {
			return experiments.AblationAlpha(e, nil)
		}},
		{"Ablation — β (Squeezer threshold)", func(e *experiments.Env) ([]experiments.AblationResult, error) {
			return experiments.AblationBeta(e, nil)
		}},
		{"Ablation — stopping rule components", experiments.AblationStopping},
		{"Ablation — stopping criteria (multi-criteria literature)", experiments.AblationStoppers},
		{"Ablation — sampling strategy", experiments.AblationSamplers},
		{"Ablation — edge-weight exponent", func(e *experiments.Env) ([]experiments.AblationResult, error) {
			return experiments.AblationWeightExponent(e, nil)
		}},
		{"Ablation — Squeezer attribute weights", experiments.AblationSqueezerWeights},
		{"Ablation — network similarity measure", experiments.AblationNetworkMeasure},
	}
	for _, s := range suites {
		rows, err := s.run(env)
		if err != nil {
			return err
		}
		t := stats.NewTable(s.title, "variant", "labels/owner", "rounds", "exact match", "final RMSE")
		for _, r := range rows {
			t.AddRow(r.Name, fmtNaN(r.MeanLabels, "%.1f"), fmtNaN(r.MeanRounds, "%.2f"),
				stats.Pct(r.ExactMatch), fmtNaN(r.MeanRMSE, "%.3f"))
		}
		fmt.Println(t)
	}
	return nil
}

func fmtNaN(v float64, format string) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf(format, v)
}

func printFig4(e *experiments.Env) error {
	rows, err := experiments.Fig4(e)
	if err != nil {
		return err
	}
	t := stats.NewTable("Figure 4 — stranger count per network similarity group (paper: skewed low, empty above NS=0.6)",
		"group", "NS range", "strangers", "share")
	for _, r := range rows {
		lo := float64(r.Group-1) / float64(len(rows))
		hi := float64(r.Group) / float64(len(rows))
		t.AddRow(fmt.Sprintf("%d", r.Group), fmt.Sprintf("[%.1f,%.1f)", lo, hi),
			fmt.Sprintf("%d", r.Count), stats.Pct(r.Share))
	}
	fmt.Println(t)
	labels := make([]string, 0, len(rows))
	values := make([]float64, 0, len(rows))
	for _, r := range rows {
		if r.Count == 0 {
			continue
		}
		labels = append(labels, fmt.Sprintf("group %d", r.Group))
		values = append(values, float64(r.Count))
	}
	fmt.Println(stats.BarChart(labels, values, 50, "%.0f"))
	return nil
}

func printHeadline(e *experiments.Env) error {
	h, err := experiments.ComputeHeadline(e)
	if err != nil {
		return err
	}
	t := stats.NewTable("Section IV-C headline results", "metric", "paper", "measured")
	t.AddRow("owners", "47", fmt.Sprintf("%d", h.Owners))
	t.AddRow("mean strangers/owner", "3661", fmt.Sprintf("%.0f", h.MeanStrangers))
	t.AddRow("mean labels/owner", "86", fmtNaN(h.MeanLabels, "%.1f"))
	t.AddRow("mean confidence", "78.39", fmtNaN(h.MeanConfidence, "%.2f"))
	t.AddRow("mean rounds to stabilize", "3.29", fmtNaN(h.MeanRounds, "%.2f"))
	t.AddRow("exact label match", "83.36%", stats.Pct(h.ExactMatchRate))
	t.AddRow("mean final RMSE", "< 0.5", fmtNaN(h.MeanRMSE, "%.3f"))
	fmt.Println(t)
	return nil
}

func printFig5(e *experiments.Env, rounds int) error {
	rows, err := experiments.Fig5(e, rounds)
	if err != nil {
		return err
	}
	t := stats.NewTable("Figure 5 — validation RMSE by round (paper: both decline, NPP below NSP)",
		"round", "NPP RMSE", "NSP RMSE", "NPP sessions", "NSP sessions")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Round), fmtNaN(r.NPP, "%.3f"), fmtNaN(r.NSP, "%.3f"),
			fmt.Sprintf("%d", r.NPPSessions), fmt.Sprintf("%d", r.NSPSessions))
	}
	fmt.Println(t)
	return nil
}

func printFig6(e *experiments.Env, rounds int) error {
	rows, err := experiments.Fig6(e, rounds)
	if err != nil {
		return err
	}
	t := stats.NewTable("Figure 6 — mean unstabilized labels by round (paper: NPP stabilizes faster)",
		"round", "NPP", "NSP")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Round), fmtNaN(r.NPP, "%.2f"), fmtNaN(r.NSP, "%.2f"))
	}
	fmt.Println(t)
	return nil
}

func printFig7(e *experiments.Env) error {
	rows, err := experiments.Fig7(e)
	if err != nil {
		return err
	}
	t := stats.NewTable("Figure 7 — share of very-risky labels per network similarity group (paper: decreasing)",
		"group", "strangers", "very risky")
	var labels []string
	var values []float64
	for _, r := range rows {
		if r.Strangers == 0 {
			continue
		}
		t.AddRow(fmt.Sprintf("%d", r.Group), fmt.Sprintf("%d", r.Strangers), stats.Pct(r.VeryRisky))
		labels = append(labels, fmt.Sprintf("group %d", r.Group))
		values = append(values, 100*r.VeryRisky)
	}
	fmt.Println(t)
	fmt.Println(stats.BarChart(labels, values, 50, "%.1f%%"))
	return nil
}

func printImportance(title string, rows []experiments.ImportanceRow, ranksShown int, paper map[string]float64) {
	header := []string{"name"}
	for i := 0; i < ranksShown; i++ {
		header = append(header, fmt.Sprintf("I%d", i+1))
	}
	header = append(header, "avg imp.", "paper avg")
	t := stats.NewTable(title, header...)
	for _, r := range rows {
		cells := []string{r.Name}
		for i := 0; i < ranksShown && i < len(r.RankCounts); i++ {
			cells = append(cells, fmt.Sprintf("%d", r.RankCounts[i]))
		}
		cells = append(cells, fmt.Sprintf("%.4f", r.AvgImportance))
		if p, ok := paper[r.Name]; ok {
			cells = append(cells, fmt.Sprintf("%.4f", p))
		} else {
			cells = append(cells, "-")
		}
		t.AddRow(cells...)
	}
	fmt.Println(t)
}

func printTable1(e *experiments.Env) error {
	printImportance("Table I — profile attribute importance (paper: gender > locale > last name)",
		experiments.Table1(e), 3,
		map[string]float64{"gender": 0.6231, "locale": 0.3226, "last name": 0.0542})
	return nil
}

func printTable2(e *experiments.Env) error {
	printImportance("Table II — mined importance of benefits (paper: photo first, wall/location last)",
		experiments.Table2(e), 7,
		map[string]float64{
			"photo": 0.27, "education": 0.143, "work": 0.140, "friend": 0.13,
			"hometown": 0.11, "location": 0.092, "wall": 0.091,
		})
	return nil
}

func printTable3(e *experiments.Env) error {
	rows := experiments.Table3(e)
	paper := experiments.PaperTheta()
	t := stats.NewTable("Table III — owner given θ weights", "item", "measured", "paper")
	for _, r := range rows {
		t.AddRow(r.Item, fmt.Sprintf("%.4f", r.AvgTheta), fmt.Sprintf("%.4f", paper[profile.Item(r.Item)]))
	}
	fmt.Println(t)
	return nil
}

func printVisibility(title string, rows []experiments.VisibilityRow, paper map[string]map[profile.Item]float64) {
	header := []string{"slice", "n"}
	for _, item := range profile.Items() {
		header = append(header, string(item))
	}
	t := stats.NewTable(title, header...)
	for _, r := range rows {
		cells := []string{r.Slice, fmt.Sprintf("%d", r.N)}
		for _, item := range profile.Items() {
			cell := stats.Pct(r.Rates[item])
			if p, ok := paper[r.Slice]; ok {
				cell += fmt.Sprintf(" (%.0f%%)", 100*p[item])
			}
			cells = append(cells, cell)
		}
		t.AddRow(cells...)
	}
	fmt.Println(t)
}

// paperVisibility collects the paper's per-item visibility rate for
// every slice (gender or locale).
func paperVisibility(slices []string, rate func(profile.Item, string) float64) map[string]map[profile.Item]float64 {
	paper := map[string]map[profile.Item]float64{}
	for _, sl := range slices {
		paper[sl] = map[profile.Item]float64{}
		for _, item := range profile.Items() {
			paper[sl][item] = rate(item, sl)
		}
	}
	return paper
}

func printTable4(e *experiments.Env) error {
	paper := paperVisibility([]string{synthetic.GenderMale, synthetic.GenderFemale}, synthetic.PaperGenderVisibility)
	printVisibility("Table IV — item visibility by gender (measured, paper in parens)", experiments.Table4(e), paper)
	return nil
}

func printTable5(e *experiments.Env) error {
	paper := paperVisibility(synthetic.Locales(), synthetic.PaperLocaleVisibility)
	rows := experiments.Table5(e)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].N > rows[j].N })
	printVisibility("Table V — item visibility by locale (measured, paper in parens)", rows, paper)
	return nil
}
