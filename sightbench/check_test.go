package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	sight "sightrisk"
	"sightrisk/client"
	"sightrisk/internal/dataset"
	"sightrisk/internal/graph"
)

func TestByteIdentityCatchesAnAlteredReport(t *testing.T) {
	ds, err := study(1, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := ds.Owners[0]
	net := sight.WrapNetwork(ds.Graph, ds.ProfileStore())
	want, err := referenceReport(context.Background(), net, rec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := referenceReport(context.Background(), net, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBytes("rerun", again, want); err != nil {
		t.Fatalf("identical runs fail the check: %v", err)
	}
	var rep client.Report
	if err := json.Unmarshal(want, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Strangers) == 0 {
		t.Fatal("report has no strangers to alter")
	}
	rep.Strangers[len(rep.Strangers)/2].Label = rep.Strangers[len(rep.Strangers)/2].Label%3 + 1
	altered, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	if sameBytes("altered", altered, want) == nil {
		t.Fatal("an altered label passed the byte-identity check")
	}
}

func TestOwnerQueueServesWholePasses(t *testing.T) {
	owners := make([]dataset.OwnerRecord, 5)
	for i := range owners {
		owners[i].ID = graph.UserID(100 + i)
	}
	q := &ownerQueue{rng: rand.New(rand.NewSource(1)), owners: owners, passes: ownerPasses(30 * time.Second)}
	counts := map[graph.UserID]int{}
	pos := 0
	for {
		rec, idx, ok := q.take()
		if !ok {
			break
		}
		if idx != pos {
			t.Fatalf("position %d handed out as %d", pos, idx)
		}
		pos++
		counts[rec.ID]++
	}
	if pos != 3*len(owners) {
		t.Fatalf("a 30 s run served %d owners, want three whole passes of %d", pos, len(owners))
	}
	for _, rec := range owners {
		if counts[rec.ID] != 3 {
			t.Errorf("owner %d served %d times in three passes", rec.ID, counts[rec.ID])
		}
	}
	if got := ownerPasses(time.Second); got != 1 {
		t.Errorf("a 1 s run serves %d passes, want 1", got)
	}
}

func TestBenchmarkJSONMatchesTheBenchmark(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(slots) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark reports %d", len(spec.EndToEnd), len(slots))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != slots[i].name || m.Unit != slots[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s %s, benchmark %s %s", i, m.Name, m.Unit, slots[i].name, slots[i].unit)
		}
	}
	if len(spec.PerLayer) != len(layerSpec) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark reports %d", len(spec.PerLayer), len(layerSpec))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerSpec[i].name || m.Unit != layerSpec[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s %s, benchmark %s %s", i, m.Name, m.Unit, layerSpec[i].name, layerSpec[i].unit)
		}
	}
}
