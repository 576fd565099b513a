package server

import (
	"context"
	"testing"

	"sightrisk/client"
)

// TestCancelBeforeRunStarts: a DELETE that lands before the job
// goroutine installs its cancel function must still cancel the run;
// otherwise a job canceled while queued waits for a worker forever.
func TestCancelBeforeRunStarts(t *testing.T) {
	j := newJob("e000001", client.EstimateRequest{})
	j.requestCancel()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.setCancel(cancel)
	if ctx.Err() == nil {
		t.Fatal("run not canceled by a DELETE that arrived before it started")
	}
}
