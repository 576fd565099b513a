package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	sight "sightrisk"
	"sightrisk/client"
	"sightrisk/internal/dataset"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/synthetic"
)

// Dataset names as the server knows them.
const (
	mediumName = "medium"
	wideName   = "wide"
)

// mediumStudySeed fixes the medium study's population. Per-owner cost
// varies about threefold across owners, so a population drawn from the
// run's seed would make estimate latency a property of the seed rather
// than of the program; the run's seed instead picks the order owners
// are served in and which of them are checked.
const mediumStudySeed = 1

// mediumStudy is the paper's study shape at interactive size: 12
// owners with 1,200 strangers each (about 16.6k nodes, 63k edges).
func mediumStudy() (*dataset.Dataset, error) {
	return study(12, 1200, mediumStudySeed)
}

// wideStudy is a crawl-sized population: 150 owners with 400
// strangers each (about 79k nodes, 324k edges), drawn from seed. Its
// costs are O(V+E) over 150 egos, which average out across seeds.
func wideStudy(seed int64) (*dataset.Dataset, error) {
	return study(150, 400, seed)
}

// study generates a synthetic.DefaultStudyConfig population with the
// given owner and stranger counts, with ground-truth labels for every
// stranger.
func study(owners, strangers int, seed int64) (*dataset.Dataset, error) {
	cfg := synthetic.DefaultStudyConfig()
	cfg.Seed = seed
	cfg.Owners = owners
	cfg.Ego.Strangers = strangers
	st, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		return nil, err
	}
	return dataset.FromStudy(st, true), nil
}

// describe records a dataset's size among the run's conditions.
func describe(r *result, name string, ds *dataset.Dataset) {
	snap := ds.Graph.Snapshot()
	strangers := 0
	for _, o := range ds.Owners {
		strangers += len(snap.Strangers(o.ID))
	}
	r.conditions[name] = map[string]int{
		"nodes":     ds.Graph.NumNodes(),
		"edges":     ds.Graph.NumEdges(),
		"owners":    len(ds.Owners),
		"strangers": strangers,
	}
}

// storedAnnotator answers from the owner's stored study labels, with
// the server's fallback for strangers the study never labeled.
func storedAnnotator(rec dataset.OwnerRecord) dataset.StoredAnnotator {
	return dataset.StoredAnnotator{Labels: rec.Labels, Fallback: label.Risky}
}

// wireLabel is the owner's answer for one stranger, as sent on the
// wire.
func wireLabel(rec dataset.OwnerRecord, stranger int64) int {
	return int(storedAnnotator(rec).LabelStranger(graph.UserID(stranger)))
}

// referenceReport runs the owner in-process through the public library
// entry point and renders the report as the server serves it.
func referenceReport(ctx context.Context, net *sight.Network, rec dataset.OwnerRecord) ([]byte, error) {
	rep, err := sight.EstimateRisk(ctx, net, rec.ID, storedAnnotator(rec), sight.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return json.Marshal(client.FromReport(rep))
}

// sameBytes reports where got first departs from want, or nil when the
// two are byte-identical.
func sameBytes(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("%s: bytes differ from the reference at offset %d (%d vs %d bytes)", what, i, len(got), len(want))
}

// largestPool is the size of the largest learning pool behind a report.
func largestPool(rep *client.Report) int {
	sizes := map[string]int{}
	best := 0
	for _, s := range rep.Strangers {
		sizes[s.Pool]++
		if sizes[s.Pool] > best {
			best = sizes[s.Pool]
		}
	}
	return best
}
