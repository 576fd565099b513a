package ldp

import (
	"encoding/json"
	"math"
	"path/filepath"
	"testing"

	"sightrisk/internal/dataset"
	"sightrisk/internal/graph"
	"sightrisk/internal/profile"
	"sightrisk/internal/synthetic"
)

// buildFixture assembles a graph and profile store from an edge list
// and a friend-list-visibility map. Every user in vis gets a profile;
// the remaining item bits follow a fixed per-user pattern so the
// visibility-rate estimators have non-trivial truth.
func buildFixture(t *testing.T, edges [][2]graph.UserID, vis map[graph.UserID]bool) (*graph.Snapshot, *profile.Store) {
	t.Helper()
	g := graph.New()
	for u, public := range vis {
		g.AddNode(u)
		_ = public
	}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("AddEdge(%d,%d): %v", e[0], e[1], err)
		}
	}
	store := profile.NewStore()
	for u, public := range vis {
		p := profile.NewProfile(u)
		p.SetVisible(profile.ItemFriend, public)
		for k, it := range profile.Items() {
			if it == profile.ItemFriend {
				continue
			}
			p.SetVisible(it, (int64(u)+int64(k))%3 == 0)
		}
		store.Put(p)
	}
	return g.Snapshot(), store
}

// k4plusTail is K4 on {1,2,3,4} with a pendant edge 4–5: 7 edges,
// 4 triangles, 15 two-stars, 7 three-stars, degrees {3,3,3,4,1}.
func k4plusTail() [][2]graph.UserID {
	return [][2]graph.UserID{
		{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}, {4, 5},
	}
}

func allPublic(ids ...graph.UserID) map[graph.UserID]bool {
	m := make(map[graph.UserID]bool)
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func TestExactKnownGraph(t *testing.T) {
	snap, store := buildFixture(t, k4plusTail(), allPublic(1, 2, 3, 4, 5))
	e := NewEstimator(snap, store)
	r := e.Exact()
	if r.EdgeCount.Value != 7 {
		t.Errorf("edge count = %v, want 7", r.EdgeCount.Value)
	}
	if r.Triangles.Value != 4 {
		t.Errorf("triangles = %v, want 4", r.Triangles.Value)
	}
	if r.TwoStars.Value != 15 {
		t.Errorf("two-stars = %v, want 15", r.TwoStars.Value)
	}
	if r.ThreeStars.Value != 7 {
		t.Errorf("three-stars = %v, want 7", r.ThreeStars.Value)
	}
	want := map[string]float64{"1": 1, "2-3": 3, "4-7": 1}
	for _, b := range r.DegreeHist {
		if b.Count != want[b.Label] {
			t.Errorf("bucket %q = %v, want %v", b.Label, b.Count, want[b.Label])
		}
	}
	if r.PublicEdges != 7 || r.PublicUsers != 5 || r.Profiles != 5 {
		t.Errorf("metadata = (%d pub edges, %d pub users, %d profiles), want (7, 5, 5)",
			r.PublicEdges, r.PublicUsers, r.Profiles)
	}
	// Friend item: all visible. Wall (k=0): visible iff u%3==0 → users 3: 1/5.
	for _, ir := range r.Visibility {
		if ir.Item == string(profile.ItemFriend) && ir.Rate != 1 {
			t.Errorf("friend visibility rate = %v, want 1", ir.Rate)
		}
		if ir.Item == string(profile.ItemWall) && ir.Rate != 0.2 {
			t.Errorf("wall visibility rate = %v, want 0.2", ir.Rate)
		}
	}
}

// TestAllPublicIsExact pins the visibility-aware theorem's base case:
// when every friend list is visible there are no private edges, no
// user randomizes anything, and the ε=0.5 release equals ground truth.
func TestAllPublicIsExact(t *testing.T) {
	snap, store := buildFixture(t, k4plusTail(), allPublic(1, 2, 3, 4, 5))
	e := NewEstimator(snap, store)
	exact := e.Exact()
	p := Params{Epsilon: 0.5, Mode: ModeVisibilityAware}
	noised, err := e.Report(p, SeedFor("t", "d", 3, 0, p))
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2]Estimate{
		"edge_count":  {exact.EdgeCount, noised.EdgeCount},
		"triangles":   {exact.Triangles, noised.Triangles},
		"two_stars":   {exact.TwoStars, noised.TwoStars},
		"three_stars": {exact.ThreeStars, noised.ThreeStars},
	} {
		if pair[1].Value != pair[0].Value || pair[1].NoisedUsers != 0 {
			t.Errorf("%s: visibility-aware on all-public graph = %+v, want exact %v with 0 noised users",
				name, pair[1], pair[0].Value)
		}
	}
	for i, b := range noised.DegreeHist {
		if b.Count != exact.DegreeHist[i].Count {
			t.Errorf("bucket %q = %v, want exact %v", b.Label, b.Count, exact.DegreeHist[i].Count)
		}
	}
	for i, ir := range noised.Visibility {
		if ir.Rate != exact.Visibility[i].Rate {
			t.Errorf("visibility %q = %v, want exact %v", ir.Item, ir.Rate, exact.Visibility[i].Rate)
		}
	}
}

// studyFixture generates a small single-owner study population with
// the synthetic generator's realistic visibility mix (roughly half the
// users expose their friend list).
func studyFixture(t *testing.T, strangers int, seed int64) (*synthetic.Study, *graph.Snapshot) {
	t.Helper()
	cfg := synthetic.SmallStudyConfig()
	cfg.Seed = seed
	cfg.Owners = 1
	cfg.Ego.Strangers = strangers
	study, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return study, study.Graph.Snapshot()
}

func TestSeededReproducibility(t *testing.T) {
	study, snap := studyFixture(t, 300, 7)
	e := NewEstimator(snap, study.Profiles)
	p := Params{Epsilon: 1, Mode: ModeVisibilityAware}
	seed := SeedFor("tenant-a", "study", 42, 0, p)
	r1, err := e.Report(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Report(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if string(b1) != string(b2) {
		t.Fatalf("same seed produced different releases:\n%s\n%s", b1, b2)
	}
	r3, err := e.Report(p, SeedFor("tenant-a", "study", 43, 0, p))
	if err != nil {
		t.Fatal(err)
	}
	b3, _ := json.Marshal(r3)
	if string(b1) == string(b3) {
		t.Fatal("different epochs produced identical noise")
	}
}

// TestSeedForBindsReleaseIdentity: the seed must distinguish every
// coordinate of the release identity — tenant, dataset, epoch,
// generation, ε and mode — while normalizing the empty-string mode
// default. Distinct seeds per (ε, mode, generation) are the defense
// against the correlated-noise attacks of docs/ANALYTICS.md §3.
func TestSeedForBindsReleaseIdentity(t *testing.T) {
	p := Params{Epsilon: 1, Mode: ModeVisibilityAware}
	base := SeedFor("a", "b", 1, 0, p)
	for name, other := range map[string]Seed{
		"swapped names":  SeedFor("b", "a", 1, 0, p),
		"shifted epoch":  SeedFor("a", "b", 2, 0, p),
		"bumped gen":     SeedFor("a", "b", 1, 1, p),
		"different eps":  SeedFor("a", "b", 1, 0, Params{Epsilon: 2, Mode: ModeVisibilityAware}),
		"different mode": SeedFor("a", "b", 1, 0, Params{Epsilon: 1, Mode: ModeAllEdge}),
	} {
		if other == base {
			t.Errorf("SeedFor collides on %s", name)
		}
	}
	if SeedFor("a", "b", 1, 0, Params{Epsilon: 1}) != base {
		t.Error("SeedFor does not normalize the empty mode to visibility_aware")
	}
}

// TestDistinctEpsilonsDrawIndependentNoise pins the fix for the
// correlated-noise attack: when two charged releases at the same
// (tenant, dataset, epoch, generation) share their uniform draws, the
// Laplace noise is one standardized draw G scaled by 1/ε — so
// v₁ = T + N/ε₁ and v₂ = T + N/ε₂ solve exactly as
// T = (ε₁v₁ − ε₂v₂)/(ε₁ − ε₂), recovering the true private count at a
// ledger cost of only 6(ε₁+ε₂). With ε folded into the seed the
// reconstruction must miss.
func TestDistinctEpsilonsDrawIndependentNoise(t *testing.T) {
	study, snap := studyFixture(t, 250, 19)
	e := NewEstimator(snap, study.Profiles)
	truth := e.Exact().EdgeCount.Value
	p1 := Params{Epsilon: 1, Mode: ModeVisibilityAware}
	p2 := Params{Epsilon: 2, Mode: ModeVisibilityAware}
	r1, err := e.Report(p1, SeedFor("t", "d", 5, 0, p1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Report(p2, SeedFor("t", "d", 5, 0, p2))
	if err != nil {
		t.Fatal(err)
	}
	recon := (p1.Epsilon*r1.EdgeCount.Value - p2.Epsilon*r2.EdgeCount.Value) / (p1.Epsilon - p2.Epsilon)
	if math.Abs(recon-truth) < 1e-6 {
		t.Fatalf("two-ε linear reconstruction recovered the exact edge count %v — ε is not salted into the noise seed", truth)
	}
	// Sanity: had the draws been shared, the reconstruction would be
	// exact — verify by replaying both ε through one raw seed.
	raw := Seed(12345)
	c1, _ := e.Report(p1, raw)
	c2, _ := e.Report(p2, raw)
	shared := (p1.Epsilon*c1.EdgeCount.Value - p2.Epsilon*c2.EdgeCount.Value) / (p1.Epsilon - p2.Epsilon)
	if math.Abs(shared-truth) > 1e-6 {
		t.Fatalf("attack model check: shared-seed reconstruction = %v, want exact truth %v", shared, truth)
	}
}

// TestGenerationDrawsFreshNoise pins the cross-generation fix: the
// same (tenant, dataset, epoch, ε, mode) at a new dataset generation
// must draw independent noise — reusing the old draws against updated
// truth would reveal v_new − v_old = T_new − T_old, the exact private
// delta.
func TestGenerationDrawsFreshNoise(t *testing.T) {
	study, snap := studyFixture(t, 250, 23)
	e := NewEstimator(snap, study.Profiles)
	p := Params{Epsilon: 1, Mode: ModeVisibilityAware}
	r0, err := e.Report(p, SeedFor("t", "d", 1, 0, p))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := e.Report(p, SeedFor("t", "d", 1, 1, p))
	if err != nil {
		t.Fatal(err)
	}
	if r0.EdgeCount.Value == r1.EdgeCount.Value {
		t.Fatal("generation bump reused the previous noise draws")
	}
}

// relErr is |est−truth| / max(1, |truth|).
func relErr(est, truth float64) float64 {
	d := math.Abs(truth)
	if d < 1 {
		d = 1
	}
	return math.Abs(est-truth) / d
}

// histL1 is the L1 distance between a released histogram and the
// exact one, normalized by the node count.
func histL1(got, want []Bucket, n int) float64 {
	s := 0.0
	for i := range got {
		s += math.Abs(got[i].Count - want[i].Count)
	}
	return s / float64(n)
}

// visL1 sums per-item absolute rate errors.
func visL1(got, want []ItemRate) float64 {
	s := 0.0
	for i := range got {
		s += math.Abs(got[i].Rate - want[i].Rate)
	}
	return s
}

// TestUnbiasedness averages each scalar estimator over many epochs and
// requires the mean within 5 standard errors of the mean of ground
// truth, in both noise modes.
func TestUnbiasedness(t *testing.T) {
	study, snap := studyFixture(t, 250, 11)
	e := NewEstimator(snap, study.Profiles)
	exact := e.Exact()
	const K = 300
	for _, mode := range []Mode{ModeVisibilityAware, ModeAllEdge} {
		sums := make(map[string]float64)
		var se map[string]float64
		for k := 0; k < K; k++ {
			p := Params{Epsilon: 1, Mode: mode}
			r, err := e.Report(p, SeedFor("t", "d", uint64(k), 0, p))
			if err != nil {
				t.Fatal(err)
			}
			sums["edge_count"] += r.EdgeCount.Value
			sums["triangles"] += r.Triangles.Value
			sums["two_stars"] += r.TwoStars.Value
			sums["three_stars"] += r.ThreeStars.Value
			if se == nil {
				se = map[string]float64{
					"edge_count":  r.EdgeCount.SE,
					"triangles":   r.Triangles.SE,
					"two_stars":   r.TwoStars.SE,
					"three_stars": r.ThreeStars.SE,
				}
			}
		}
		truth := map[string]float64{
			"edge_count":  exact.EdgeCount.Value,
			"triangles":   exact.Triangles.Value,
			"two_stars":   exact.TwoStars.Value,
			"three_stars": exact.ThreeStars.Value,
		}
		for name, want := range truth {
			mean := sums[name] / K
			tol := 5 * se[name] / math.Sqrt(K)
			if tol == 0 {
				tol = 1e-9
			}
			if math.Abs(mean-want) > tol {
				t.Errorf("%s mode %s: mean over %d epochs = %v, truth %v, tolerance %v",
					name, mode, K, mean, want, tol)
			}
		}
	}
}

// TestVisibilityAwareBeatsAllEdge measures per-statistic RMS relative
// error over many epochs and requires the visibility-aware release
// strictly more accurate than the all-edge baseline on every
// statistic — the package's headline claim, which riskbench -mode ldp
// re-verifies across the full ε sweep.
func TestVisibilityAwareBeatsAllEdge(t *testing.T) {
	study, snap := studyFixture(t, 250, 13)
	e := NewEstimator(snap, study.Profiles)
	if e.PublicUsers() == 0 || e.PublicUsers() == e.Nodes() {
		t.Fatalf("fixture needs a visibility mix, got %d/%d public", e.PublicUsers(), e.Nodes())
	}
	exact := e.Exact()
	const K = 200
	rms := map[Mode]map[string]float64{ModeVisibilityAware: {}, ModeAllEdge: {}}
	for mode, acc := range rms {
		for k := 0; k < K; k++ {
			// Deliberately one raw seed shared across both modes: the
			// common-random-numbers pairing that makes the strict
			// ordering deterministic (see noise.go). Served releases
			// never share seeds across modes — SeedFor folds the mode
			// in — but the library comparison may, since the test
			// already holds the ground truth.
			r, err := e.Report(Params{Epsilon: 1, Mode: mode}, Seed(1000+k))
			if err != nil {
				t.Fatal(err)
			}
			acc["edge_count"] += sq(relErr(r.EdgeCount.Value, exact.EdgeCount.Value))
			acc["triangles"] += sq(relErr(r.Triangles.Value, exact.Triangles.Value))
			acc["two_stars"] += sq(relErr(r.TwoStars.Value, exact.TwoStars.Value))
			acc["three_stars"] += sq(relErr(r.ThreeStars.Value, exact.ThreeStars.Value))
			acc["degree_hist"] += sq(histL1(r.DegreeHist, exact.DegreeHist, r.Nodes))
			acc["visibility"] += sq(visL1(r.Visibility, exact.Visibility))
		}
	}
	for stat, va := range rms[ModeVisibilityAware] {
		ae := rms[ModeAllEdge][stat]
		if !(va < ae) {
			t.Errorf("%s: visibility-aware RMS error %v not below all-edge %v",
				stat, math.Sqrt(va/K), math.Sqrt(ae/K))
		}
	}
}

func sq(x float64) float64 { return x * x }

// TestSnapfileEquivalence packs the study into a .snap container,
// reopens it mmap'd with lazy profiles, and requires the release
// bytes identical to the in-memory build — the property that lets
// /v1/stats serve packed datasets with no special casing.
func TestSnapfileEquivalence(t *testing.T) {
	study, snap := studyFixture(t, 300, 17)
	mem := NewEstimator(snap, study.Profiles)

	path := filepath.Join(t.TempDir(), "study.snap")
	if err := dataset.PackSnap(dataset.FromStudy(study, true), path); err != nil {
		t.Fatal(err)
	}
	rt, err := dataset.OpenRuntime(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if !rt.Mapped() {
		t.Fatal("runtime is not snapshot-backed")
	}
	mapped := NewEstimator(rt.Snapshot, rt.Profiles)

	for _, p := range []Params{
		{Mode: ModeExact},
		{Epsilon: 0.5, Mode: ModeVisibilityAware},
		{Epsilon: 2, Mode: ModeAllEdge},
	} {
		seed := SeedFor("tenant", "study", 9, 0, p)
		a, err := mem.Report(p, seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := mapped.Report(p, seed)
		if err != nil {
			t.Fatal(err)
		}
		ab, _ := json.Marshal(a)
		bb, _ := json.Marshal(b)
		if string(ab) != string(bb) {
			t.Errorf("mode %s: mmap'd release differs from in-memory:\n%s\n%s", p.Mode, ab, bb)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	for _, bad := range []Params{
		{},
		{Epsilon: 0},
		{Epsilon: -1, Mode: ModeVisibilityAware},
		{Epsilon: math.NaN(), Mode: ModeAllEdge},
		{Epsilon: math.Inf(1), Mode: ModeAllEdge},
		{Epsilon: 1, Mode: Mode("bogus")},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", bad)
		}
	}
	for _, good := range []Params{
		{Mode: ModeExact},
		{Epsilon: 0.5},
		{Epsilon: 4, Mode: ModeAllEdge},
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", good, err)
		}
	}
}

func TestParseMode(t *testing.T) {
	if m, err := ParseMode(""); err != nil || m != ModeVisibilityAware {
		t.Errorf(`ParseMode("") = (%v, %v), want visibility_aware`, m, err)
	}
	if m, err := ParseMode("all_edge"); err != nil || m != ModeAllEdge {
		t.Errorf(`ParseMode("all_edge") = (%v, %v)`, m, err)
	}
	for _, bad := range []string{"exact", "laplace", "va"} {
		if _, err := ParseMode(bad); err == nil {
			t.Errorf("ParseMode(%q) accepted", bad)
		}
	}
}
