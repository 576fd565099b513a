package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchFilesDecode: every checked-in BENCH_*.json decodes into its
// mode's document type with no unknown field, and writeBench encodes
// the decoded document back to the same bytes, so no field was
// renamed, dropped or reordered.
func TestBenchFilesDecode(t *testing.T) {
	docs := map[string]func() any{
		"fleet":       func() any { return &fleetBenchReport{} },
		"serve":       func() any { return &serveBenchReport{} },
		"cluster":     func() any { return &clusterBenchReport{} },
		"scale":       func() any { return &scaleBench{} },
		"incremental": func() any { return &reviseBench[incrRow]{} },
		"advise":      func() any { return &reviseBench[adviseRow]{} },
		"ldp":         func() any { return &ldpBench{} },
	}
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json found at the repository root")
	}
	for _, path := range files {
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")
		newDoc, ok := docs[name]
		if !ok {
			t.Errorf("%s: no mode writes this file", path)
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		doc := newDoc()
		dec := json.NewDecoder(bytes.NewReader(want))
		dec.DisallowUnknownFields()
		if err := dec.Decode(doc); err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		out := filepath.Join(t.TempDir(), "out.json")
		if err := writeBench(out, doc); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: re-encoding the decoded document changes its bytes", path)
		}
	}
}

func TestParseListRejectsBadEntries(t *testing.T) {
	for _, spec := range []string{"", "1,,2", "1,x", "2.5", "0", "1,-3", " , "} {
		if got, err := parseList("-nodes", spec, atLeast(1)); err == nil {
			t.Errorf("parseList(%q) = %v, want an error", spec, got)
		}
	}
	for _, spec := range []string{"", "0", "-1", "NaN", "1,abc"} {
		if got, err := parseList("-ldp-eps", spec, func(e float64) bool { return e > 0 }); err == nil {
			t.Errorf("parseList(%q) = %v, want an error", spec, got)
		}
	}
	got, err := parseList("-nodes", " 1, 2 ,4", atLeast(1))
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 4 {
		t.Errorf("parseList(\" 1, 2 ,4\") = %v, %v; want [1 2 4]", got, err)
	}
	eps, err := parseList("-ldp-eps", "0.5,4", func(e float64) bool { return e > 0 })
	if err != nil || len(eps) != 2 || eps[0] != 0.5 || eps[1] != 4 {
		t.Errorf("parseList(\"0.5,4\") = %v, %v; want [0.5 4]", eps, err)
	}
}

// TestFailedModeKeepsOutput: a mode whose gate fails must leave an
// existing -out file byte for byte as it was; a passing mode writes it.
func TestFailedModeKeepsOutput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_x.json")
	old := []byte("{\"identical_reports\": true}\n")
	if err := os.WriteFile(out, old, 0o644); err != nil {
		t.Fatal(err)
	}
	doc := map[string]bool{"identical_reports": false}
	failing := mode{name: "x", run: func(opts) (any, error) { return doc, errors.New("reports are not byte-identical") }}
	if err := run(failing, opts{out: out}); err == nil {
		t.Fatal("run returned nil for a failing mode")
	}
	if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("failed mode changed %s: %q (%v)", out, got, err)
	}

	passing := mode{name: "x", run: func(opts) (any, error) { return doc, nil }}
	if err := run(passing, opts{out: out}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(out); !bytes.Contains(got, []byte(`"identical_reports": false`)) {
		t.Fatalf("passing mode did not write its document: %q", got)
	}
}

func TestResolve(t *testing.T) {
	var o opts
	m, err := resolve("scale", []string{"mode", "seed", "sizes"}, &o)
	if err != nil {
		t.Fatal(err)
	}
	if m.name != "scale" || o.out != "BENCH_scale.json" || o.sizes != "10000,100000,316000,1000000" {
		t.Errorf("scale defaults: mode %q, out %q, sizes %q", m.name, o.out, o.sizes)
	}
	o = opts{out: "x.json", sizes: "300"}
	if _, err := resolve("advise", nil, &o); err != nil || o.out != "x.json" || o.sizes != "300" {
		t.Errorf("advise kept out %q sizes %q (%v), want the given values", o.out, o.sizes, err)
	}
	for _, c := range []struct {
		mode string
		set  []string
	}{
		{"paper", []string{"tenants"}},
		{"fleet", []string{"sizes"}},
		{"audit", []string{"out"}},
		{"scale", []string{"scale"}},
		{"sweep", nil},
	} {
		if _, err := resolve(c.mode, c.set, &opts{}); err == nil {
			t.Errorf("resolve(%q, %v) accepted", c.mode, c.set)
		}
	}
}
