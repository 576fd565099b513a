package server_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	sight "sightrisk"
	"sightrisk/client"
	"sightrisk/internal/dataset"
	"sightrisk/internal/server"
)

// TestServedStoredMatchesSerial is the tentpole guarantee: a report
// obtained through sightd + the typed client (stored annotator, no
// wire loop) is byte-identical to the in-process serial run.
func TestServedStoredMatchesSerial(t *testing.T) {
	ds := testDataset(t, 2, 120, 51)
	_, _, c := newTestServer(t, server.Config{Datasets: map[string]*dataset.Dataset{"study": ds}, Workers: 2})
	ctx := context.Background()

	for _, rec := range ds.Owners {
		want := serialWireBytes(t, ds, rec.ID)
		st, err := c.Submit(ctx, &client.EstimateRequest{
			Dataset: "study", Owner: int64(rec.ID), Annotator: client.AnnotatorStored,
		})
		if err != nil {
			t.Fatal(err)
		}
		fin, err := c.Wait(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if fin.Status != client.StatusDone {
			t.Fatalf("owner %d: status %q, error %v", rec.ID, fin.Status, fin.Error)
		}
		if got := wireBytes(t, fin.Report); !bytes.Equal(got, want) {
			t.Errorf("owner %d: served report differs from serial run\nserved: %s\nserial: %s", rec.ID, got, want)
		}
	}
}

// TestServedRemoteMatchesSerial: the same guarantee with the owner on
// the other end of the wire — questions long-polled, answers posted —
// which is the paper's deployment shape.
func TestServedRemoteMatchesSerial(t *testing.T) {
	ds := testDataset(t, 1, 120, 53)
	_, _, c := newTestServer(t, server.Config{Datasets: map[string]*dataset.Dataset{"study": ds}, Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	owner := ds.Owners[0].ID
	want := serialWireBytes(t, ds, owner)
	rep, err := c.Run(ctx, &client.EstimateRequest{Dataset: "study", Owner: int64(owner)},
		answerFromDataset(ds, owner))
	if err != nil {
		t.Fatal(err)
	}
	if got := wireBytes(t, rep); !bytes.Equal(got, want) {
		t.Errorf("remote-annotated report differs from serial run\nserved: %s\nserial: %s", got, want)
	}
}

// TestServedInlineNetworkMatchesSerial: an inline graph/profile
// payload round-trips through the wire and still reproduces the
// in-process run byte for byte.
func TestServedInlineNetworkMatchesSerial(t *testing.T) {
	ds := testDataset(t, 1, 100, 55)
	_, _, c := newTestServer(t, server.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	owner := ds.Owners[0].ID
	want := serialWireBytes(t, ds, owner)

	// Export the dataset's network as a wire payload.
	payload := client.NetworkFrom(sight.WrapNetwork(ds.Graph, ds.ProfileStore()))

	rep, err := c.Run(ctx, &client.EstimateRequest{Network: payload, Owner: int64(owner)},
		answerFromDataset(ds, owner))
	if err != nil {
		t.Fatal(err)
	}
	if got := wireBytes(t, rep); !bytes.Equal(got, want) {
		t.Errorf("inline-network report differs from serial run\nserved: %s\nserial: %s", got, want)
	}
}

// TestRestartResumeMatchesSerial is the acceptance criterion's hard
// case: a remote-annotated job is interrupted by a server drain
// mid-run, a new server process recovers the state directory, resumes
// the job from its checkpoint (never re-asking answered questions from
// committed rounds), and the final report is STILL byte-identical to
// the uninterrupted in-process serial run.
func TestRestartResumeMatchesSerial(t *testing.T) {
	stateDir := t.TempDir()
	mkConfig := func() server.Config {
		return server.Config{
			Datasets: map[string]*dataset.Dataset{"study": testDataset(t, 1, 120, 57)},
			Workers:  1,
			StateDir: stateDir,
		}
	}
	ds := testDataset(t, 1, 120, 57) // content-identical replica for the baseline and answers
	owner := ds.Owners[0].ID
	want := serialWireBytes(t, ds, owner)
	answer := answerFromDataset(ds, owner)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// --- first server: answer a handful of questions, then drain ---
	srvA, hsA, cA := newTestServer(t, mkConfig())
	st, err := cA.Submit(ctx, &client.EstimateRequest{Dataset: "study", Owner: int64(owner)})
	if err != nil {
		t.Fatal(err)
	}
	answered := 0
	for answered < 5 {
		q := waitForQuestion(t, cA, st.ID)
		lab, _ := answer(q.Stranger)
		if _, err := cA.Answer(ctx, st.ID, []client.Answer{{Stranger: q.Stranger, Label: lab}}); err != nil {
			t.Fatal(err)
		}
		answered++
	}
	// Wait for the next question so we drain strictly mid-run, with at
	// least one full round (3 answers) checkpointed.
	waitForQuestion(t, cA, st.ID)
	drainCtx, drainCancel := context.WithTimeout(ctx, 30*time.Second)
	if err := srvA.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	drainCancel()
	hsA.Close()

	// --- second server over the same state dir: resume and finish ---
	srvB, _, cB := newTestServer(t, mkConfig())
	// The job turns "done" before its final record is written, so
	// Drive can return while the job goroutine still writes to the
	// state dir. Drain before the state dir is removed.
	t.Cleanup(func() {
		drainCtx, drainCancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer drainCancel()
		if err := srvB.Drain(drainCtx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	got, err := cB.Get(ctx, st.ID)
	if err != nil {
		t.Fatalf("job not recovered after restart: %v", err)
	}
	if got.Status == client.StatusFailed {
		t.Fatalf("recovered job failed: %v", got.Error)
	}
	rep, err := cB.Drive(ctx, st.ID, answer)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatalf("resumed run ended partial: interrupt %q", rep.Interrupt)
	}
	if gotB := wireBytes(t, rep); !bytes.Equal(gotB, want) {
		t.Errorf("post-restart report differs from serial run\nserved: %s\nserial: %s", gotB, want)
	}
}

// TestRestartRecoversFinishedJobs: terminal results survive restarts.
func TestRestartRecoversFinishedJobs(t *testing.T) {
	stateDir := t.TempDir()
	mk := func() server.Config {
		return server.Config{
			Datasets: map[string]*dataset.Dataset{"study": testDataset(t, 1, 80, 59)},
			Workers:  1,
			StateDir: stateDir,
		}
	}
	ctx := context.Background()
	srvA, hsA, cA := newTestServer(t, mk())
	owner := testDataset(t, 1, 80, 59).Owners[0].ID
	st, err := cA.Submit(ctx, &client.EstimateRequest{Dataset: "study", Owner: int64(owner), Annotator: client.AnnotatorStored})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := cA.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := wireBytes(t, fin.Report)
	srvA.Drain(ctx)
	hsA.Close()

	_, _, cB := newTestServer(t, mk())
	got, err := cB.Get(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != client.StatusDone {
		t.Fatalf("recovered status = %q, want done", got.Status)
	}
	if b := wireBytes(t, got.Report); !bytes.Equal(b, want) {
		t.Errorf("recovered report differs:\nafter:  %s\nbefore: %s", b, want)
	}
}
