package main

import (
	"fmt"
	"strings"

	"sightrisk/internal/experiments"
)

// auditLeg is one determinism check of audit mode. run returns the
// count the leg's line reports and a divergence description ("" on
// pass).
type auditLeg struct {
	name string
	note string // what the count counts, and what was compared
	run  func() (int, string, error)
}

// runAudit is audit mode: the determinism auditor over the population
// the robustness table uses, two full runs per topology diffed event
// by event, then the snapfile, cluster, incremental, advise and ldp
// legs. Every leg prints one PASS or DIVERGED line; any divergence
// fails the run.
func runAudit(o opts) (any, error) {
	verdicts, err := experiments.AuditRobustness(robustnessConfig(o.seed, o.workers))
	if err != nil {
		return nil, err
	}
	var legs []auditLeg
	for _, v := range verdicts {
		legs = append(legs, auditLeg{v.Topology, "events per run", func() (int, string, error) { return v.Events, v.Detail, nil }})
	}
	legs = append(legs,
		auditLeg{"snapfile", "events per run, mmap vs in-memory", func() (int, string, error) { return auditSnapfile(o.seed, o.workers) }},
		auditLeg{"cluster", "checkpoints observed, 2-node failover vs single-node", func() (int, string, error) { return auditCluster(o.seed, o.workers) }},
		auditLeg{"incremental", "pools per run, revision vs full recompute at workers 1/2/4", func() (int, string, error) { return auditRevise(o.seed, false) }},
		auditLeg{"advise", "pools per run, counterfactual vs full recompute at workers 1/2/4", func() (int, string, error) { return auditRevise(o.seed, true) }},
		auditLeg{"ldp", "releases checked: replays identical; fresh epochs, generations and ε independent", func() (int, string, error) { return auditLDP(o.seed) }},
	)
	diverged := false
	for _, leg := range legs {
		n, detail, err := leg.run()
		if err != nil {
			return nil, fmt.Errorf("%s audit: %w", leg.name, err)
		}
		status := "PASS"
		if detail != "" {
			status = "DIVERGED"
			diverged = true
		}
		fmt.Printf("audit %-12s %-8s (%d %s)\n", leg.name, status, n, leg.note)
		if detail != "" {
			for _, line := range strings.Split(detail, "\n") {
				fmt.Println("  " + line)
			}
		}
	}
	if diverged {
		return nil, fmt.Errorf("determinism audit failed")
	}
	fmt.Println("determinism audit passed: both runs of every topology were bit-identical, mmap-backed estimates matched in-memory ones bit for bit, the post-failover cluster report matched the single-node run byte for byte, incremental revisions matched full recomputes at every worker count, the advise counterfactual matched its full recompute byte for byte at every worker count, and repeated differentially private releases reproduced byte for byte while fresh epochs, bumped generations and different ε all drew independent noise")
	return nil, nil
}
