package server_test

import (
	"context"
	"testing"
	"time"

	"sightrisk/client"
	"sightrisk/internal/dataset"
	"sightrisk/internal/server"
)

// gatedFinalStore is a DirStore whose PutFinal announces the job id
// and then blocks until the test releases it, holding the server
// between "outcome known" and "outcome durable".
type gatedFinalStore struct {
	*server.DirStore
	entered chan string
	release chan struct{}
}

func (s gatedFinalStore) PutFinal(id string, fin server.FinalRecord) error {
	s.entered <- id
	<-s.release
	return s.DirStore.PutFinal(id, fin)
}

// TestTerminalStatusOnlyAfterDurable: a client must never see a
// terminal status for an outcome the store does not hold yet — neither
// for a job that ran nor for a revision served by the no-recompute
// fast path. While PutFinal blocks, GET /v1/estimates/{id} reports the
// job as still in flight.
func TestTerminalStatusOnlyAfterDurable(t *testing.T) {
	dir, err := server.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st := gatedFinalStore{DirStore: dir, entered: make(chan string), release: make(chan struct{})}
	ds := testDataset(t, 1, 80, 61)
	_, _, c := newTestServer(t, server.Config{Datasets: map[string]*dataset.Dataset{"study": ds}, Workers: 1, Store: st})
	ctx := context.Background()
	owner := int64(ds.Owners[0].ID)

	// held waits for the next PutFinal, checks the job is not yet
	// terminal while it blocks, then lets the write through.
	held := func(what string) string {
		t.Helper()
		var id string
		select {
		case id = <-st.entered:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: PutFinal never called", what)
		}
		got, err := c.Get(ctx, id)
		if err != nil {
			t.Error(err)
		} else if got.Status == client.StatusDone || got.Status == client.StatusFailed {
			t.Errorf("%s: job %s reports %q before its final record is durable", what, id, got.Status)
		}
		st.release <- struct{}{}
		return id
	}

	sub, err := c.Submit(ctx, &client.EstimateRequest{Dataset: "study", Owner: owner, Annotator: client.AnnotatorStored})
	if err != nil {
		t.Fatal(err)
	}
	if id := held("run"); id != sub.ID {
		t.Fatalf("PutFinal for %s, submitted %s", id, sub.ID)
	}
	fin, err := c.Wait(ctx, sub.ID)
	if err != nil || fin.Status != client.StatusDone {
		t.Fatalf("job: %v status=%v", err, fin)
	}

	revised := make(chan *client.EstimateStatus, 1)
	go func() {
		rst, err := c.Revise(ctx, sub.ID, &client.ReviseRequest{})
		if err != nil {
			t.Error(err)
		}
		revised <- rst
	}()
	held("fast-path revision")
	if rst := <-revised; rst != nil && rst.Status != client.StatusDone {
		t.Fatalf("fast-path revision status = %q, want done", rst.Status)
	}
}
