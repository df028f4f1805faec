package serve

import (
	"context"
	"errors"
	"strings"
	"testing"

	"glitchlab/internal/core"
	"glitchlab/internal/runctl"
)

func mustNormalize(t *testing.T, s Spec) Spec {
	t.Helper()
	n, err := s.Normalize()
	if err != nil {
		t.Fatalf("Normalize(%+v): %v", s, err)
	}
	return n
}

func TestNormalizeDefaults(t *testing.T) {
	cases := []struct {
		name string
		in   Spec
		want Spec
	}{
		{
			name: "campaign flip budget defaults to the full sweep",
			in:   Spec{Kind: KindCampaign, Model: "and"},
			want: Spec{Kind: KindCampaign, Model: "and", MaxFlips: 16},
		},
		{
			name: "campaign out-of-range flip budget clamps to the full sweep",
			in:   Spec{Kind: KindCampaign, Model: "and", MaxFlips: 40},
			want: Spec{Kind: KindCampaign, Model: "and", MaxFlips: 16},
		},
		{
			name: "campaign ignores scan/eval fields",
			in:   Spec{Kind: KindCampaign, Model: "xor", MaxFlips: 2, Exp: "table1a", Seed: 9},
			want: Spec{Kind: KindCampaign, Model: "xor", MaxFlips: 2},
		},
		{
			name: "all-variants campaign ignores zero-invalid",
			in:   Spec{Kind: KindCampaign, ZeroInvalid: true, MaxFlips: 2},
			want: Spec{Kind: KindCampaign, MaxFlips: 2},
		},
		{
			name: "scan defaults exp and seed",
			in:   Spec{Kind: KindScan},
			want: Spec{Kind: KindScan, Exp: "all", Seed: core.DefaultSeed},
		},
		{
			name: "scan ignores campaign fields",
			in:   Spec{Kind: KindScan, Exp: "search", Seed: 7, Model: "and", ZeroInvalid: true, PadUDF: true, MaxFlips: 3},
			want: Spec{Kind: KindScan, Exp: "search", Seed: 7},
		},
		{
			name: "eval zeroes the seed for seed-blind experiments",
			in:   Spec{Kind: KindEval, Exp: "table5", Seed: 7},
			want: Spec{Kind: KindEval, Exp: "table5"},
		},
		{
			name: "eval keeps the seed for table6",
			in:   Spec{Kind: KindEval, Exp: "table6", Seed: 7},
			want: Spec{Kind: KindEval, Exp: "table6", Seed: 7},
		},
		{
			name: "eval defaults the seed for all",
			in:   Spec{Kind: KindEval, Exp: "all"},
			want: Spec{Kind: KindEval, Exp: "all", Seed: core.DefaultSeed},
		},
		{
			name: "eval figure2 defaults the campaign shape",
			in:   Spec{Kind: KindEval, Exp: "figure2"},
			want: Spec{Kind: KindEval, Exp: "figure2", Model: "and", MaxFlips: 16},
		},
		{
			name: "eval non-figure2 ignores campaign fields",
			in:   Spec{Kind: KindEval, Exp: "lint", Model: "xor", ZeroInvalid: true, MaxFlips: 4},
			want: Spec{Kind: KindEval, Exp: "lint"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := mustNormalize(t, tc.in)
			if got != tc.want {
				t.Errorf("Normalize(%+v) = %+v, want %+v", tc.in, got, tc.want)
			}
		})
	}
}

func TestNormalizeIsIdempotent(t *testing.T) {
	specs := []Spec{
		{Kind: KindCampaign, MaxFlips: 3},
		{Kind: KindScan, Exp: "table2", Seed: 5},
		{Kind: KindEval, Exp: "figure2", Model: "or", ZeroInvalid: true, MaxFlips: 2},
	}
	for _, s := range specs {
		once := mustNormalize(t, s)
		twice := mustNormalize(t, once)
		if once != twice {
			t.Errorf("Normalize not idempotent: %+v -> %+v", once, twice)
		}
	}
}

func TestNormalizeErrors(t *testing.T) {
	bad := []Spec{
		{Kind: "bake"},
		{Kind: ""},
		{Kind: KindCampaign, Model: "nand"},
		{Kind: KindScan, Exp: "table9"},
		{Kind: KindScan, Exp: "figure2"}, // eval experiment, wrong kind
		{Kind: KindEval, Exp: "tableX"},
		{Kind: KindEval, Exp: "figure2", Model: "nand"},
	}
	for _, s := range bad {
		if _, err := s.Normalize(); err == nil {
			t.Errorf("Normalize(%+v): want error, got nil", s)
		}
	}
}

// TestCacheKeyFieldSensitivity is the satellite cache-correctness core:
// any single result-shaping field change must change the key, and fields
// a kind ignores must not.
func TestCacheKeyFieldSensitivity(t *testing.T) {
	const stamp = "glitchd/v1 test"
	base := mustNormalize(t, Spec{Kind: KindCampaign, Model: "and", MaxFlips: 4})
	variants := []Spec{
		{Kind: KindCampaign, Model: "or", MaxFlips: 4},
		{Kind: KindCampaign, Model: "and", ZeroInvalid: true, MaxFlips: 4},
		{Kind: KindCampaign, Model: "and", PadUDF: true, MaxFlips: 4},
		{Kind: KindCampaign, Model: "and", MaxFlips: 5},
		{Kind: KindCampaign, MaxFlips: 4}, // all four variants vs one model
		{Kind: KindScan, Exp: "table1a"},
		{Kind: KindScan, Exp: "table1b"},
		{Kind: KindScan, Exp: "table1a", Seed: 7},
		{Kind: KindEval, Exp: "table5"},
		{Kind: KindEval, Exp: "table6"},
		{Kind: KindEval, Exp: "table6", Seed: 7},
		{Kind: KindEval, Exp: "figure2", Model: "and", MaxFlips: 4},
	}
	seen := map[string]Spec{base.CacheKey(stamp): base}
	for _, v := range variants {
		n := mustNormalize(t, v)
		key := n.CacheKey(stamp)
		if prev, dup := seen[key]; dup {
			t.Errorf("cache key collision: %+v and %+v share %s", prev, n, key)
		}
		seen[key] = n
	}
}

// TestCacheKeyIgnoresNormalizedAwayFields: submissions that cannot differ
// in output share one key, so the cache coalesces them.
func TestCacheKeyIgnoresNormalizedAwayFields(t *testing.T) {
	const stamp = "glitchd/v1 test"
	pairs := [][2]Spec{
		{{Kind: KindCampaign, Model: "and"}, {Kind: KindCampaign, Model: "and", MaxFlips: 16, Seed: 9}},
		{{Kind: KindCampaign, ZeroInvalid: true}, {Kind: KindCampaign}},
		{{Kind: KindScan}, {Kind: KindScan, Exp: "all", Seed: core.DefaultSeed, Model: "xor"}},
		{{Kind: KindEval, Exp: "table5", Seed: 3}, {Kind: KindEval, Exp: "table5", Seed: 8}},
		{{Kind: KindEval, Exp: "lint", MaxFlips: 2}, {Kind: KindEval, Exp: "lint"}},
	}
	for _, p := range pairs {
		a := mustNormalize(t, p[0]).CacheKey(stamp)
		b := mustNormalize(t, p[1]).CacheKey(stamp)
		if a != b {
			t.Errorf("specs %+v and %+v should share a cache key", p[0], p[1])
		}
	}
}

// TestCacheKeyStampChange is the satellite-6 invalidation contract: the
// same spec under a different schema/engine stamp must miss.
func TestCacheKeyStampChange(t *testing.T) {
	n := mustNormalize(t, Spec{Kind: KindScan, Exp: "search"})
	if n.CacheKey("glitchd/v1 engine/v1 rules/a") == n.CacheKey("glitchd/v1 engine/v1 rules/b") {
		t.Error("rules-version change must change the cache key")
	}
	if n.CacheKey("glitchd/v1 engine/v1 r") == n.CacheKey("glitchd/v2 engine/v1 r") {
		t.Error("daemon schema version change must change the cache key")
	}
}

func TestStampCoversEngineAndRules(t *testing.T) {
	s := Stamp()
	if !strings.HasPrefix(s, "glitchd/v1 ") {
		t.Errorf("Stamp() = %q, want glitchd/v1 prefix", s)
	}
	if !strings.Contains(s, core.ResultStamp()) {
		t.Errorf("Stamp() = %q must embed core.ResultStamp() = %q", s, core.ResultStamp())
	}
}

func TestConfigHashSharedWithCLI(t *testing.T) {
	// Normalization-equivalent submissions must produce one config hash, so
	// the daemon job directory is resumable as one run.
	a := mustNormalize(t, Spec{Kind: KindCampaign, Model: "and"})
	b := mustNormalize(t, Spec{Kind: KindCampaign, Model: "and", MaxFlips: 16})
	if a.ConfigHash() != b.ConfigHash() {
		t.Error("equivalent campaign specs must share a config hash")
	}
	c := mustNormalize(t, Spec{Kind: KindScan, Exp: "search", Seed: 2})
	if a.ConfigHash() == c.ConfigHash() {
		t.Error("campaign and scan hashes should differ")
	}
}

// TestResumeAcrossEngineStampRefused opens a table6 run directory under
// an older engine stamp and resumes it under the current one: the resume
// must fail with a config DriftError rather than mix cells computed by two
// engine revisions.
func TestResumeAcrossEngineStampRefused(t *testing.T) {
	spec := mustNormalize(t, Spec{Kind: KindEval, Exp: "table6"})
	dir := t.TempDir()
	old := runctl.Manifest{Tool: spec.ToolName(), Seed: spec.Seed,
		ConfigHash: spec.configHash("engine/v1 rules/old")}
	rn, err := runctl.Open(context.Background(), dir, old, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := rn.Complete("table6 scenario=while(!a) config=all attack=Single",
		struct{ Total uint64 }{1}); err != nil {
		t.Fatal(err)
	}
	if err := rn.Close(); err != nil {
		t.Fatal(err)
	}

	cur := runctl.Manifest{Tool: spec.ToolName(), Seed: spec.Seed, ConfigHash: spec.ConfigHash()}
	_, err = runctl.Open(context.Background(), dir, cur, true)
	var drift *runctl.DriftError
	if !errors.As(err, &drift) || drift.Field != "config" {
		t.Fatalf("resume across engine stamps returned %v, want a config DriftError", err)
	}
	if rn, err := runctl.Open(context.Background(), dir, old, true); err != nil {
		t.Fatalf("resume under the original stamp failed: %v", err)
	} else {
		rn.Close()
	}
}

func TestToolName(t *testing.T) {
	for spec, want := range map[Spec]string{
		{Kind: KindCampaign}: "glitchemu",
		{Kind: KindScan}:     "glitchscan",
		{Kind: KindEval}:     "glitcheval",
	} {
		if got := spec.ToolName(); got != want {
			t.Errorf("ToolName(%s) = %q, want %q", spec.Kind, got, want)
		}
	}
}
