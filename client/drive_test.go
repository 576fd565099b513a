package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// finishedBeforeAnswerServer scripts the answer-after-finish race: the
// first long-poll delivers one question, the job finishes before the
// answer lands (POST answers 409 "conflict"), and every later poll
// reports the job done.
func finishedBeforeAnswerServer(t *testing.T, answers *atomic.Int64) *httptest.Server {
	t.Helper()
	var polls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/estimates/e1/questions", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if polls.Add(1) == 1 {
			w.Write([]byte(`{"status":"running","questions":[{"seq":1,"stranger":42}]}`))
			return
		}
		w.Write([]byte(`{"status":"done","questions":[]}`))
	})
	mux.HandleFunc("POST /v1/estimates/e1/answers", func(w http.ResponseWriter, r *http.Request) {
		answers.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		w.Write([]byte(`{"error":{"code":"conflict","message":"estimate already finished"}}`))
	})
	mux.HandleFunc("GET /v1/estimates/e1", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id":"e1","status":"done","owner":7,"queries":1,"report":{"owner":7,"strangers":[],"labels_requested":1,"pools":0}}`))
	})
	return httptest.NewServer(mux)
}

// TestDriveAnswerAfterFinish: an answer rejected with 409 because the
// job finished in between means "terminal, re-poll", not failure — on
// both the single-node client and the cluster router.
func TestDriveAnswerAfterFinish(t *testing.T) {
	type driveFunc func(context.Context, string, AnswerFunc) (*Report, error)
	drivers := map[string]func(t *testing.T, url string) driveFunc{
		"client": func(t *testing.T, url string) driveFunc { return New(url).Drive },
		"cluster": func(t *testing.T, url string) driveFunc {
			cl, err := NewCluster([]ClusterNode{{ID: "n1", URL: url}})
			if err != nil {
				t.Fatal(err)
			}
			return cl.Drive
		},
	}
	for name, newDriver := range drivers {
		t.Run(name, func(t *testing.T) {
			var answers atomic.Int64
			hs := finishedBeforeAnswerServer(t, &answers)
			defer hs.Close()
			rep, err := newDriver(t, hs.URL)(context.Background(), "e1", func(int64) (int, error) { return 1, nil })
			if err != nil {
				t.Fatalf("Drive: %v, want the finished job's report", err)
			}
			if rep == nil || rep.Owner != 7 {
				t.Fatalf("report = %+v, want owner 7", rep)
			}
			if got := answers.Load(); got != 1 {
				t.Errorf("answers posted = %d, want 1", got)
			}
		})
	}
}
