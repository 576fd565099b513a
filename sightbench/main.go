// Command sightbench is the repository's end-to-end benchmark. It
// starts an in-process sightd behind a loopback listener, drives it
// through client.Client the way a deployed caller would, checks the
// served outputs against in-process recomputation, and prints every
// metric by name with its unit and sample count. The last line of its
// standard output is one JSON object: correct, attempted, failed and
// metrics — the end-to-end metrics on an untraced run (-trace 0), the
// per-layer metrics on a traced one (-trace 1). See README.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// serverWorkers is sightd's job concurrency; the benchmark host has
// two CPUs.
const serverWorkers = 2

// setupRepeats is how many times a run performs its set-up; setup_s
// is their median.
const setupRepeats = 3

// maxRun bounds a run's measured window whatever its minimum sample
// counts ask for, so every run ends well within three minutes.
const maxRun = 100 * time.Second

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workdir  string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, options) (*result, error){
	"owner_interactive": runOwnerInteractive,
	"crawl_refresh":     runCrawlRefresh,
	"tenant_stats":      runTenantStats,
}

func main() {
	var o options
	var secs float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "owner_interactive, crawl_refresh or tenant_stats")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&secs, "seconds", 15, "minimum measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "scratch directory for durable server state")
	flag.Parse()
	o.seconds = time.Duration(secs * float64(time.Second))
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "sightbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and prints its report; it fails when the
// workload is unknown, cannot start, or any operation or check failed.
func run(o options) error {
	fn, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 || o.seconds > maxRun {
		return fmt.Errorf("-seconds must be in (0, %v]", maxRun.Seconds())
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	cpu, mem := hostSpeed()
	res, err := fn(context.Background(), o)
	if err != nil {
		return err
	}
	res.conditions["host_cpu_ms"] = cpu
	res.conditions["host_mem_ms"] = mem
	res.conditions["nproc"] = runtime.NumCPU()
	res.conditions["gomaxprocs"] = runtime.GOMAXPROCS(0)
	res.conditions["go"] = runtime.Version()
	if err := res.write(os.Stdout); err != nil {
		return err
	}
	if !res.correct() {
		return fmt.Errorf("%s: %d of %d operations failed, %d failure(s) logged", o.workload, res.total().failed, res.total().attempted, len(res.failures))
	}
	return nil
}

// calibrationSink keeps the calibration loops from being optimized away.
var calibrationSink float64

// hostSpeed times a fixed dependent arithmetic loop and a fixed sweep
// over 8 MB. On a shared host the effective CPU speed and memory
// bandwidth drift by tens of percent within minutes, and every timing
// moves with them; these two figures let a reader tell that drift from
// a change in the program.
func hostSpeed() (cpuMS, memMS float64) {
	t0 := time.Now()
	x := 0.0
	for i := 0; i < 50_000_000; i++ {
		x = x*1.0000001 + 1
	}
	cpuMS = ms(time.Since(t0))
	buf := make([]float64, 1<<20)
	t0 = time.Now()
	for k := 0; k < 50; k++ {
		for i := range buf {
			buf[i] += float64(k)
		}
	}
	memMS = ms(time.Since(t0))
	calibrationSink = x + buf[1]
	return cpuMS, memMS
}
