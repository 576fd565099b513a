package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"sightrisk/client"
	"sightrisk/internal/delta"
	"sightrisk/internal/graph"
	"sightrisk/internal/profile"
)

// fuzzWorld is the small graph and profile store every fuzzed batch is
// applied to: a path 1-2-3-4 plus an isolated node 5, with profiles for
// users 1-3.
func fuzzWorld(t *testing.T) (*graph.Graph, *profile.Store) {
	g := graph.New()
	for _, e := range [][2]graph.UserID{{1, 2}, {2, 3}, {3, 4}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g.AddNode(5)
	store := profile.NewStore()
	for u := graph.UserID(1); u <= 3; u++ {
		p := profile.NewProfile(u)
		p.SetAttr(profile.AttrGender, "female")
		p.SetAttr(profile.AttrLocale, "en_US")
		store.Put(p)
	}
	return g, store
}

// FuzzUpdatesDecode feeds arbitrary bodies through the POST /v1/updates
// decode path — strict JSON decoding, wire-to-engine conversion and
// validation — and applies every batch that validates the way a drain
// does (copy-on-write apply, then coalescing). Nothing may panic, a
// validated batch must apply cleanly without touching the old store,
// and its coalesced form must still validate.
func FuzzUpdatesDecode(f *testing.F) {
	for _, seed := range []string{
		`{"dataset":"study","owner":1,"updates":[{"kind":"edge_add","a":1,"b":9}]}`,
		`{"dataset":"study","updates":[{"kind":"edge_remove","a":2,"b":3},{"kind":"edge_add","a":2,"b":3}]}`,
		`{"dataset":"study","updates":[{"kind":"profile_set","a":7,"attr":"last name","value":"x"}]}`,
		`{"dataset":"study","updates":[{"kind":"visibility_set","a":1,"attr":"wall","visible":true}]}`,
		`{"dataset":"study","updates":[{"kind":"node_add","a":-4}]}`,
		`{"dataset":"study","updates":[{"kind":"edge_add","a":3,"b":3}]}`,
		`{"dataset":"study","updates":[{"kind":"teleport","a":1}]}`,
		`{"dataset":"study","updates":[{"kind":"edge_add","a":1,"b":2,"extra":1}]}`,
		`{"dataset":"study","updates":null}`,
		`{"updates":[{"kind":"edge_add","a":1e3,"b":2}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req client.UpdatesRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		batch := toBatch(req.Updates)
		if err := batch.Validate(); err != nil {
			return
		}
		g, store := fuzzWorld(t)
		users := len(store.Users())
		next, err := batch.ApplyCloned(g, store)
		if err != nil {
			t.Fatalf("validated batch failed to apply: %v", err)
		}
		if next == nil || len(store.Users()) != users {
			t.Fatal("copy-on-write apply changed the old store")
		}
		merged := delta.Coalesce([]delta.Batch{batch, batch})
		if len(merged) > len(batch) {
			t.Fatalf("coalescing a batch with itself grew it: %d > %d", len(merged), len(batch))
		}
		if err := merged.Validate(); err != nil {
			t.Fatalf("coalesced batch invalid: %v", err)
		}
	})
}
