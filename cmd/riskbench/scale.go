package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sightrisk/internal/graph"
	"sightrisk/internal/graph/snapfile"
	"sightrisk/internal/obs"
	"sightrisk/internal/parallel"
	"sightrisk/internal/synthetic"

	sight "sightrisk"
)

// scaleRow is one population size's measurements in the scale curve.
type scaleRow struct {
	Nodes       int     `json:"nodes"`
	Edges       int     `json:"edges"`
	GenerateMS  float64 `json:"generate_ms"`
	SnapBytes   int64   `json:"snap_bytes"`
	SnapWriteMS float64 `json:"snap_write_ms"`
	SnapOpenMS  float64 `json:"snap_open_ms"`
	JSONBytes   int64   `json:"json_bytes,omitempty"`
	JSONLoadMS  float64 `json:"json_load_ms,omitempty"`
	OpenSpeedup float64 `json:"open_speedup,omitempty"`
	Owners      int     `json:"owners"`
	// Strangers is the mean stranger count per benchmark owner and
	// LargestPool the largest learning pool any of them ran: the
	// conditions that set owners/sec.
	Strangers    float64 `json:"strangers"`
	LargestPool  int     `json:"largest_pool"`
	OwnersPerSec float64 `json:"owners_per_sec"`
	RSSMB        float64 `json:"rss_mb"`
	ByteIdent    *bool   `json:"mmap_byte_identical,omitempty"`
}

// scaleBench is the BENCH_scale.json document.
type scaleBench struct {
	GeneratedAt string     `json:"generated_at"`
	Seed        int64      `json:"seed"`
	Workers     int        `json:"workers"`
	Rows        []scaleRow `json:"rows"`
}

// byteIdentityMax is the largest population we double-run (mmap vs
// in-memory) per size to assert report byte-identity; beyond it the
// invariant is covered by the smaller sizes and the package tests.
const byteIdentityMax = 200_000

// scaleMemNeed estimates the peak resident bytes one sweep size costs:
// generation scratch (weights, alias table, edge keys), the CSR and
// profile arrays twice (in-memory + mapped), and the map-backed graph
// that graph.Load materializes for the JSON comparison — by far the
// dominant term.
func scaleMemNeed(nodes int, avgDegree float64) uint64 {
	e := uint64(float64(nodes) * avgDegree / 2)
	gen := uint64(nodes)*28 + e*8
	csr := 2 * (uint64(nodes)*16 + e*24)
	jsonGraph := e * 200 // two map entries per edge plus buckets
	return gen + csr + jsonGraph
}

// procKB reads a "Key:  N kB" line from a /proc status file in bytes
// (0, false when unreadable — non-Linux or restricted).
func procKB(path, key string) (uint64, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if fields := strings.Fields(line); len(fields) >= 2 && fields[0] == key+":" {
			kb, err := strconv.ParseUint(fields[1], 10, 64)
			return kb * 1024, err == nil
		}
	}
	return 0, false
}

// writeCSRJSON streams the snapshot as the graph package's JSON edge
// list without materializing a map-backed Graph — the writer side of
// the mmap-vs-JSON load comparison.
func writeCSRJSON(path string, snap *graph.Snapshot) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	bw.WriteString(`{"nodes":[`)
	for i, id := range snap.Nodes() {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(strconv.FormatInt(int64(id), 10))
	}
	bw.WriteString(`],"edges":[`)
	first := true
	for _, id := range snap.Nodes() {
		for _, nb := range snap.Friends(id) {
			if nb <= id {
				continue
			}
			if !first {
				bw.WriteByte(',')
			}
			first = false
			bw.WriteByte('[')
			bw.WriteString(strconv.FormatInt(int64(id), 10))
			bw.WriteByte(',')
			bw.WriteString(strconv.FormatInt(int64(nb), 10))
			bw.WriteByte(']')
		}
	}
	bw.WriteString(`]}`)
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// scaleRun is one pass of the benchmark owners over a network.
type scaleRun struct {
	reports   [][]byte // marshaled, for the byte-identity checks
	elapsed   time.Duration
	strangers int // summed over owners
	largest   int // largest pool of any owner
}

// runScaleOwners estimates every owner on the network. The annotator
// is a cheap deterministic rule, so owners/sec measures the pipeline,
// not the annotator.
func runScaleOwners(net *sight.Network, owners []graph.UserID, opts sight.Options) (scaleRun, error) {
	var r scaleRun
	ann := sight.AnnotatorFunc(func(s sight.UserID) sight.Label { return sight.Label(int(s)%3 + 1) })
	start := time.Now()
	for _, o := range owners {
		rep, err := sight.EstimateRisk(context.Background(), net, o, ann, opts)
		if err != nil {
			return r, fmt.Errorf("owner %d: %w", o, err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			return r, err
		}
		r.reports = append(r.reports, b)
		r.strangers += len(rep.Strangers)
		pools := map[string]int{}
		for _, sr := range rep.Strangers {
			pools[sr.Pool]++
			r.largest = max(r.largest, pools[sr.Pool])
		}
	}
	r.elapsed = time.Since(start)
	return r, nil
}

// firstDiff returns the index of the first owner whose report differs
// between two passes over the same owners, or -1.
func firstDiff(a, b scaleRun) int {
	for i := range a.reports {
		if !bytes.Equal(a.reports[i], b.reports[i]) {
			return i
		}
	}
	return -1
}

func scaleOptions(seed int64, workers int) sight.Options {
	opts := sight.DefaultOptions()
	opts.Seed = seed
	opts.Workers = workers
	return opts
}

// auditSnapfile is the snapshot-file leg of audit mode: the same
// owners estimated twice with the event auditor attached and stage
// digests on — once off the freshly generated in-memory CSR arrays,
// once off a packed, mmap'd snapshot file. The reports and the full
// event trails must both be bit-identical. Returns the events per run
// and a divergence description ("" on pass).
func auditSnapfile(seed int64, workers int) (int, string, error) {
	cfg := synthetic.DefaultScaleConfig(10000)
	cfg.Seed = seed
	cfg.Owners = 2
	sg, err := synthetic.GenerateScale(cfg)
	if err != nil {
		return 0, "", err
	}
	dir, err := os.MkdirTemp("", "riskbench-audit-*")
	if err != nil {
		return 0, "", err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "audit.snap")
	if err := snapfile.Create(path, snapfile.Contents{Snapshot: sg.Snapshot, Profiles: sg.Profiles}); err != nil {
		return 0, "", err
	}
	f, err := snapfile.Open(path)
	if err != nil {
		return 0, "", err
	}
	defer f.Close()

	runSide := func(net *sight.Network) (scaleRun, []obs.Record, error) {
		opts := scaleOptions(seed, workers)
		aud := obs.NewAuditor()
		opts.Observability.Observer = aud
		opts.Observability.Trace.Digests = true
		r, err := runScaleOwners(net, sg.Owners, opts)
		return r, aud.Trail(), err
	}

	mem, memTrail, err := runSide(sight.WrapSnapshot(sg.Snapshot, sg.Profiles.Store()))
	if err != nil {
		return 0, "", fmt.Errorf("in-memory run: %w", err)
	}
	mmap, mmapTrail, err := runSide(sight.WrapSnapshot(f.Snapshot(), f.Profiles().Store()))
	if err != nil {
		return 0, "", fmt.Errorf("mmap run: %w", err)
	}
	if i := firstDiff(mem, mmap); i >= 0 {
		return len(memTrail), fmt.Sprintf("owner %d: mmap-backed report differs from in-memory report", sg.Owners[i]), nil
	}
	if d, diverged := obs.FirstDivergence(memTrail, mmapTrail); diverged {
		return len(memTrail), d.String(), nil
	}
	return len(memTrail), "", nil
}

// runScaleBench is scale mode: for each population size it generates
// a SNAP-Facebook-like graph straight into CSR, packs it into a
// snapshot file, measures mmap open vs JSON load, runs every benchmark
// owner off the mapped pages, and (at the smaller sizes) verifies the
// mmap-backed reports byte-identical to in-memory ones.
func runScaleBench(o opts) (any, error) {
	sizes, err := parseList("-sizes", o.sizes, atLeast(2))
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "riskbench-scale-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	seed := o.seed
	opts := scaleOptions(seed, o.workers)
	bench := scaleBench{GeneratedAt: time.Now().UTC().Format(time.RFC3339), Seed: seed, Workers: parallel.ResolveWorkers(o.workers)}
	fmt.Printf("riskbench: scale sweep sizes=%v seed=%d\n", sizes, seed)
	fmt.Printf("%10s %10s %12s %12s %12s %12s %9s %10s %8s %12s %9s %6s\n",
		"nodes", "edges", "generate", "snap write", "mmap open", "json load", "speedup", "strangers", "largest", "owners/sec", "rss MB", "ident")

	for _, n := range sizes {
		cfg := synthetic.DefaultScaleConfig(n)
		cfg.Seed = seed
		if o.scaleOwners > 0 {
			cfg.Owners = o.scaleOwners
		}
		if avail, ok := procKB("/proc/meminfo", "MemAvailable"); ok {
			if need := scaleMemNeed(n, cfg.AvgDegree); need > avail {
				fmt.Printf("riskbench: stopping before %d nodes: needs ~%.1f GiB, %.1f GiB available\n",
					n, float64(need)/(1<<30), float64(avail)/(1<<30))
				break
			}
		}

		genStart := time.Now()
		sg, err := synthetic.GenerateScale(cfg)
		if err != nil {
			return nil, fmt.Errorf("generate %d: %w", n, err)
		}
		genT := time.Since(genStart)

		snapPath := filepath.Join(dir, fmt.Sprintf("scale-%d.snap", n))
		writeStart := time.Now()
		if err := snapfile.Create(snapPath, snapfile.Contents{Snapshot: sg.Snapshot, Profiles: sg.Profiles}); err != nil {
			return nil, fmt.Errorf("pack %d: %w", n, err)
		}
		writeT := time.Since(writeStart)
		st, err := os.Stat(snapPath)
		if err != nil {
			return nil, err
		}

		openStart := time.Now()
		f, err := snapfile.Open(snapPath)
		if err != nil {
			return nil, fmt.Errorf("open %d: %w", n, err)
		}
		openT := time.Since(openStart)

		row := scaleRow{
			Nodes:       sg.Snapshot.NumNodes(),
			Edges:       sg.Snapshot.NumEdges(),
			GenerateMS:  float64(genT.Microseconds()) / 1000,
			SnapBytes:   st.Size(),
			SnapWriteMS: float64(writeT.Microseconds()) / 1000,
			SnapOpenMS:  float64(openT.Microseconds()) / 1000,
			Owners:      len(sg.Owners),
		}

		// JSON comparison: the same graph through the text codec, when
		// it fits under the decoder's size limit.
		jsonPath := filepath.Join(dir, fmt.Sprintf("scale-%d.json", n))
		jsonBytes, err := writeCSRJSON(jsonPath, sg.Snapshot)
		if err != nil {
			return nil, fmt.Errorf("json write %d: %w", n, err)
		}
		jsonCell := "-"
		if jsonBytes <= graph.MaxDecodeBytes {
			loadStart := time.Now()
			if _, err := graph.Load(jsonPath); err != nil {
				return nil, fmt.Errorf("json load %d: %w", n, err)
			}
			loadT := time.Since(loadStart)
			row.JSONBytes = jsonBytes
			row.JSONLoadMS = float64(loadT.Microseconds()) / 1000
			if openT > 0 {
				row.OpenSpeedup = row.JSONLoadMS / row.SnapOpenMS
			}
			jsonCell = loadT.Round(time.Millisecond).String()
		}
		os.Remove(jsonPath)

		// Owner throughput off the mapped pages.
		mmapNet := sight.WrapSnapshot(f.Snapshot(), f.Profiles().Store())
		mmap, err := runScaleOwners(mmapNet, sg.Owners, opts)
		if err != nil {
			return nil, fmt.Errorf("owners at %d: %w", n, err)
		}
		if mmap.elapsed > 0 {
			row.OwnersPerSec = float64(len(sg.Owners)) / mmap.elapsed.Seconds()
		}
		row.Strangers = float64(mmap.strangers) / float64(max(1, len(sg.Owners)))
		row.LargestPool = mmap.largest
		rss, _ := procKB("/proc/self/status", "VmRSS") // 0 when unreadable
		row.RSSMB = float64(rss) / (1 << 20)

		// Standing invariant: mmap-backed estimates are byte-identical
		// to ones computed off the freshly generated in-memory arrays.
		identCell := "-"
		if n <= byteIdentityMax {
			memNet := sight.WrapSnapshot(sg.Snapshot, sg.Profiles.Store())
			mem, err := runScaleOwners(memNet, sg.Owners, opts)
			if err != nil {
				return nil, fmt.Errorf("in-memory owners at %d: %w", n, err)
			}
			if i := firstDiff(mem, mmap); i >= 0 {
				f.Close()
				return nil, fmt.Errorf("scale %d: owner %d: mmap-backed report differs from in-memory report", n, sg.Owners[i])
			}
			ident := true
			row.ByteIdent = &ident
			identCell = "yes"
		}
		f.Close()
		os.Remove(snapPath)

		speedCell := "-"
		if row.OpenSpeedup > 0 {
			speedCell = fmt.Sprintf("%.0fx", row.OpenSpeedup)
		}
		fmt.Printf("%10d %10d %12s %12s %12s %12s %9s %10.0f %8d %12.2f %9.0f %6s\n",
			row.Nodes, row.Edges, genT.Round(time.Millisecond), writeT.Round(time.Millisecond),
			openT.Round(100*time.Microsecond), jsonCell, speedCell, row.Strangers, row.LargestPool,
			row.OwnersPerSec, row.RSSMB, identCell)
		bench.Rows = append(bench.Rows, row)
	}

	if len(bench.Rows) == 0 {
		return nil, fmt.Errorf("scale sweep: no size fit in available memory")
	}
	return bench, nil
}
