package sight

// Tests for the redesigned Observer-aware public API: the
// worker-invariant event stream, the inertness of tracing, grouped
// option validation, and the AsFallible annotator adaptation rules.

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"sightrisk/internal/obs"
)

func ringObserved(t *testing.T, net *Network, owner UserID, ann Annotator, workers int) []Event {
	t.Helper()
	ring := obs.NewRing(1 << 14)
	opts := DefaultOptions()
	opts.Workers = workers
	opts.Observability.Observer = ring
	opts.Observability.Trace.Digests = true
	if _, err := EstimateRisk(context.Background(), net, owner, ann, opts); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if ring.Dropped() != 0 {
		t.Fatalf("workers=%d: ring dropped %d events", workers, ring.Dropped())
	}
	return ring.Events()
}

// TestEventStreamWorkerInvariant is the stream's core guarantee: on a
// complete run the delivered event sequence — boundaries, queries,
// digests, attribution — is identical at every Workers value. Only
// Seq/Time/Dur (zeroed by Canonical) may differ.
func TestEventStreamWorkerInvariant(t *testing.T) {
	net, owner := demoNetwork(t, 5, 60)
	ann := AnnotatorFunc(func(s UserID) Label {
		if net.Attribute(s, AttrGender) == "male" {
			return Risky
		}
		return NotRisky
	})
	ref := ringObserved(t, net, owner, ann, 1)
	if len(ref) == 0 {
		t.Fatal("serial run emitted no events")
	}
	if ref[0].Kind != obs.KindRunStart || ref[len(ref)-1].Kind != obs.KindRunEnd {
		t.Fatalf("stream not bracketed by run.start/run.end: first %v last %v", ref[0].Kind, ref[len(ref)-1].Kind)
	}
	for _, workers := range []int{2, 8} {
		got := ringObserved(t, net, owner, ann, workers)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d events, serial %d", workers, len(got), len(ref))
		}
		for i := range got {
			if got[i].Canonical() != ref[i].Canonical() {
				t.Fatalf("workers=%d: event %d differs:\n  serial:   %+v\n  parallel: %+v",
					workers, i, ref[i].Canonical(), got[i].Canonical())
			}
		}
	}
}

// TestTracerDoesNotChangeReport: attaching an observer (with digests)
// must be pure observation — the Report is byte-identical to an
// unobserved run's.
func TestTracerDoesNotChangeReport(t *testing.T) {
	net, owner := demoNetwork(t, 5, 60)
	ann := AnnotatorFunc(func(s UserID) Label {
		if net.Attribute(s, AttrLocale) != "en_US" {
			return VeryRisky
		}
		return NotRisky
	})
	plain, err := EstimateRisk(context.Background(), net, owner, ann, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Observability.Observer = NewTracer(io.Discard)
	opts.Observability.Trace.Digests = true
	traced, err := EstimateRisk(context.Background(), net, owner, ann, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffReports(t, plain, traced); d != "" {
		t.Fatalf("tracing changed the report: %s", d)
	}
}

// TestValidateReportsAllViolations: a many-ways-broken Options comes
// back with every violation in one error, not just the first.
func TestValidateReportsAllViolations(t *testing.T) {
	opts := DefaultOptions()
	opts.Pooling.Alpha = 0
	opts.Pooling.Beta = 1.5
	opts.Learning.PerRound = 0
	opts.Learning.Confidence = 150
	opts.Learning.Sampler = "psychic"
	opts.Workers = -1
	err := opts.Validate()
	if err == nil {
		t.Fatal("expected validation failure")
	}
	for _, want := range []string{
		"Pooling.Alpha", "Pooling.Beta", "Learning.PerRound",
		"Learning.Confidence", `sampler "psychic"`, "Workers",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error misses %q:\n%v", want, err)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("DefaultOptions invalid: %v", err)
	}
}

// TestAsFallible pins the adaptation rules of the unified annotator
// parameter.
func TestAsFallible(t *testing.T) {
	if _, err := AsFallible(nil); err == nil {
		t.Error("nil annotator accepted")
	}
	if _, err := AsFallible(42); err == nil || !strings.Contains(err.Error(), "int") {
		t.Errorf("non-annotator should fail naming its type, got %v", err)
	}
	fallible := FallibleAnnotatorFunc(func(ctx context.Context, s UserID) (Label, error) {
		return Risky, nil
	})
	got, err := AsFallible(fallible)
	if err != nil {
		t.Fatal(err)
	}
	if l, err := got.LabelStranger(context.Background(), 1); err != nil || l != Risky {
		t.Fatalf("fallible pass-through broken: %v %v", l, err)
	}
	plain := AnnotatorFunc(func(s UserID) Label { return VeryRisky })
	wrapped, err := AsFallible(plain)
	if err != nil {
		t.Fatal(err)
	}
	if l, err := wrapped.LabelStranger(context.Background(), 1); err != nil || l != VeryRisky {
		t.Fatalf("infallible wrap broken: %v %v", l, err)
	}
}

// TestEstimateRiskRejectsInvalidOptions: validation errors surface
// before any work happens, and carry the errors.Join structure.
func TestEstimateRiskRejectsInvalidOptions(t *testing.T) {
	net, owner := demoNetwork(t, 3, 20)
	ann := AnnotatorFunc(func(UserID) Label { return NotRisky })
	opts := DefaultOptions()
	opts.Pooling.Alpha = -1
	opts.Learning.StableRounds = 0
	_, err := EstimateRisk(context.Background(), net, owner, ann, opts)
	if err == nil {
		t.Fatal("invalid options accepted")
	}
	var joined interface{ Unwrap() []error }
	if !errors.As(err, &joined) || len(joined.Unwrap()) != 2 {
		t.Fatalf("expected a 2-error join, got %v", err)
	}
}
