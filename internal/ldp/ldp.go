// Package ldp estimates aggregate graph and visibility statistics
// under edge-level local differential privacy (edge-LDP) with
// visibility-aware noise.
//
// The paper's core observation is that privacy risk flows through
// visibility: what a stranger can see of a user's neighborhood is
// exactly what that user chose to expose. The same observation powers
// the estimators here. Every user is classified as *public* (their
// friend list is visible to non-friends, i.e. the "friend" benefit
// item of profile.Item is visible) or *private*. An edge is public
// when either endpoint is public — one exposed friend list suffices
// for a non-friend to observe the edge — and private only when both
// endpoints hide their lists.
//
// Public edges carry no secret, so their contribution to any statistic
// is reported exactly. Only the private remainder is protected by an
// ε-LDP mechanism (Laplace noise on counts, randomized response on
// categorical reports). Users whose local view contains no private
// contribution report exactly and consume no noise at all. The
// resulting estimators are unbiased with strictly smaller variance
// than the conventional all-edge baseline, which noises every user's
// report regardless of visibility; riskbench's ldp mode
// measures the gap across ε.
//
// Five statistic families are estimated, mirroring the aggregate
// tables of the source paper: edge count, degree distribution
// (log-scale histogram), triangle count, k-star counts (k = 2, 3) and
// the per-item visibility rates of Tables IV/V.
//
// All randomness is drawn from deterministic counter-based streams
// keyed by (seed, statistic, user). Given the same Seed — derived via
// SeedFor from the full release identity (tenant, dataset, epoch,
// dataset generation, ε, mode) — a Report is bit-for-bit
// reproducible, so repeated queries re-serve the *same* noisy release
// instead of drawing fresh noise. That is what makes repeated queries
// free under sequential composition: no new randomness, no new
// leakage, no extra ε spent. Conversely, releases that differ in ANY
// identity coordinate — a new epoch, a new dataset generation, a
// different ε or mode — draw independent noise; correlated noise
// across distinct charged releases would let them be combined to
// cancel the noise out (see docs/ANALYTICS.md §3).
package ldp

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// Mode selects which noise regime a Report is computed under.
type Mode string

// The supported noise regimes.
const (
	// ModeVisibilityAware reports public contributions exactly and
	// noises only private ones — the package's reason to exist.
	ModeVisibilityAware Mode = "visibility_aware"
	// ModeAllEdge is the conventional edge-LDP baseline: every user
	// noises their full local view, visible or not. It satisfies the
	// same ε-LDP guarantee with strictly more variance; it exists for
	// the benchmark comparison.
	ModeAllEdge Mode = "all_edge"
	// ModeExact computes the true statistics with no noise. Library
	// only: the server never serves it, since exact private counts are
	// precisely what the mechanism exists to protect.
	ModeExact Mode = "exact"
)

// ParseMode maps a wire string to a Mode. The empty string selects
// ModeVisibilityAware. ModeExact is deliberately not parseable from
// the wire; it is reachable only by constructing Params directly.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", string(ModeVisibilityAware):
		return ModeVisibilityAware, nil
	case string(ModeAllEdge):
		return ModeAllEdge, nil
	default:
		return "", fmt.Errorf("ldp: unknown noise mode %q (want %q or %q)",
			s, ModeVisibilityAware, ModeAllEdge)
	}
}

// Mechanisms is the number of independent ε-LDP mechanisms one full
// Report invokes: edge count, degree histogram, triangles, 2-stars,
// 3-stars and the visibility-rate report. Under sequential composition
// a Report at per-mechanism budget ε therefore costs Mechanisms·ε of a
// tenant's total budget (see the server's ledger).
//
// The ε of each mechanism is per protected *unit*, and the unit is
// deliberately fine-grained: one edge for the graph mechanisms
// (edge-LDP, not node-LDP) and, analogously, one visibility item bit
// for the visibility report — each of a profile's items is randomized
// independently at the full ε, so the whole 7-bit vector is only
// 7ε-LDP by basic composition. A tenant needing whole-vector (or
// whole-neighborhood) protection at level ε must divide the requested
// ε accordingly; docs/ANALYTICS.md §2 spells this out.
const Mechanisms = 6

// Params configures one Report.
type Params struct {
	// Epsilon is the per-mechanism privacy budget. Required (finite,
	// > 0) for the noised modes; ignored by ModeExact.
	Epsilon float64
	// Mode selects the noise regime. Empty means ModeVisibilityAware.
	Mode Mode
}

// Validate reports the first problem with the parameters, or nil.
func (p Params) Validate() error {
	switch p.Mode {
	case ModeExact:
		return nil
	case "", ModeVisibilityAware, ModeAllEdge:
		if math.IsNaN(p.Epsilon) || math.IsInf(p.Epsilon, 0) || p.Epsilon <= 0 {
			return fmt.Errorf("ldp: epsilon must be a finite positive number, got %v", p.Epsilon)
		}
		return nil
	default:
		return fmt.Errorf("ldp: unknown mode %q", p.Mode)
	}
}

// mode returns the effective mode with the empty-string default
// applied.
func (p Params) mode() Mode {
	if p.Mode == "" {
		return ModeVisibilityAware
	}
	return p.Mode
}

// Seed keys every noise stream of one Report. Equal seeds yield
// bit-identical reports; distinct seeds yield independent noise.
//
// A raw Seed deliberately does NOT encode the Params it is used with,
// so a caller that passes one Seed to Report under two different
// Params gets common random numbers: the shared users draw the same
// standardized noise in both releases. That is a feature for paired
// benchmarking against ground truth the caller already holds
// (riskbench -mode ldp) and a privacy hazard everywhere else — two
// released values T + G/ε₁ and T + G/ε₂ with shared G solve exactly
// for the private T. Production releases must therefore derive seeds
// with SeedFor, which folds the parameters in.
type Seed uint64

// SeedFor derives the canonical seed for one release identity: the
// (tenant, dataset, epoch) coordinates chosen by the caller, the
// dataset's update generation, and the noise parameters (ε bits and
// normalized mode). FNV-1a over the NUL-separated names followed by
// the big-endian epoch, generation and float64 bits of ε, then the
// mode string.
//
// The same identity always maps to the same seed — the property the
// server's free-replay rule and the reproducibility audit rest on.
// Just as load-bearing is the converse: identities differing in any
// coordinate draw independent noise. ε and mode are folded in so two
// charged releases at the same epoch can never share standardized
// draws (shared draws would make the pair linearly solvable for the
// exact private counts, invalidating sequential-composition
// accounting); the generation is folded in so noise is re-drawn when
// the data changes (re-serving old noise against new truth would
// reveal v_new − v_old = T_new − T_old, the exact private delta).
func SeedFor(tenant, dataset string, epoch, generation uint64, p Params) Seed {
	h := fnv.New64a()
	h.Write([]byte(tenant))
	h.Write([]byte{0})
	h.Write([]byte(dataset))
	h.Write([]byte{0})
	var e [8]byte
	binary.BigEndian.PutUint64(e[:], epoch)
	h.Write(e[:])
	binary.BigEndian.PutUint64(e[:], generation)
	h.Write(e[:])
	binary.BigEndian.PutUint64(e[:], math.Float64bits(p.Epsilon))
	h.Write(e[:])
	h.Write([]byte(p.mode()))
	return Seed(h.Sum64())
}
