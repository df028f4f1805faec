package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"glitchlab/internal/core"
	"glitchlab/internal/runctl"
)

// Job kinds: each maps onto one of the batch experiment CLIs.
const (
	KindCampaign = "campaign" // glitchemu: Section IV emulation campaigns
	KindScan     = "scan"     // glitchscan: Section V scans and the V-B search
	KindEval     = "eval"     // glitcheval: Section VII defense evaluation
)

// ResultSchemaVersion identifies the daemon's result encoding (the
// rendered report bytes plus the job file layout). It is folded into
// every cache key together with core.ResultStamp, so bumping either
// retires all cached results (see Stamp).
const ResultSchemaVersion = 1

// Stamp is the daemon-mode schema/version fingerprint folded into every
// result-cache key: a cached body is only ever served to a submission
// made under the identical stamp, so engine or schema changes bust stale
// results exactly like analyze.RulesVersion does for the corpus-lint
// cache.
func Stamp() string {
	return fmt.Sprintf("glitchd/v%d %s", ResultSchemaVersion, core.ResultStamp())
}

// Spec is one job submission: an experiment configuration with the exact
// expressive power of the batch CLIs' result-shaping flags. Execution
// knobs (worker count, full-run) are deliberately absent — they never
// change result bytes, so they belong to the daemon, not the job
// identity.
type Spec struct {
	// Kind selects the engine: campaign, scan or eval.
	Kind string `json:"kind"`

	// Exp selects the experiment within scan (table1a, table1b, table1c,
	// table1, table2, table3, search, all) and eval (table4, table5,
	// table6, table7, lint, figure2, all). Empty means all.
	Exp string `json:"exp,omitempty"`

	// Campaign shape (also eval's figure2 experiment): mutation model
	// (and, or, xor; empty = the four published Figure 2 variants),
	// the zero-is-invalid refinement, UDF padding, and the flip budget
	// (0 = the full 16-bit sweep).
	Model       string `json:"model,omitempty"`
	ZeroInvalid bool   `json:"zero_invalid,omitempty"`
	PadUDF      bool   `json:"pad_udf,omitempty"`
	MaxFlips    int    `json:"max_flips,omitempty"`

	// Seed is the fault-model seed for scan and eval jobs (0 = the
	// published core.DefaultSeed).
	Seed uint64 `json:"seed,omitempty"`
}

var scanExps = map[string]bool{
	"table1a": true, "table1b": true, "table1c": true, "table1": true,
	"table2": true, "table3": true, "search": true, "all": true,
}

var evalExps = map[string]bool{
	"table4": true, "table5": true, "table6": true, "table7": true,
	"lint": true, "figure2": true, "all": true,
}

// Normalize validates the spec and canonicalizes it: defaults are made
// explicit and fields the kind ignores are zeroed, so two submissions
// that cannot differ in output never differ in cache key. The returned
// spec is the job's identity; the receiver is unchanged.
func (s Spec) Normalize() (Spec, error) {
	n := s
	switch s.Kind {
	case KindCampaign:
		if _, err := core.Figure2Variants(s.Model, s.ZeroInvalid); err != nil {
			return n, err
		}
		if n.MaxFlips <= 0 || n.MaxFlips > 16 {
			n.MaxFlips = 16
		}
		if n.Model == "" {
			// The four published variants fix zero-invalid themselves.
			n.ZeroInvalid = false
		}
		n.Exp = ""
		n.Seed = 0 // campaigns are exhaustive; no fault-model seed
	case KindScan:
		if n.Exp == "" {
			n.Exp = "all"
		}
		if !scanExps[n.Exp] {
			return n, fmt.Errorf("serve: unknown scan experiment %q", s.Exp)
		}
		if n.Seed == 0 {
			n.Seed = core.DefaultSeed
		}
		n.Model, n.ZeroInvalid, n.PadUDF, n.MaxFlips = "", false, false, 0
	case KindEval:
		if n.Exp == "" {
			n.Exp = "all"
		}
		if !evalExps[n.Exp] {
			return n, fmt.Errorf("serve: unknown eval experiment %q", s.Exp)
		}
		// The fault-model seed only shapes Table VI; zero it elsewhere so
		// seed-only-different submissions of seed-blind experiments share
		// one cache entry.
		if n.Exp == "table6" || n.Exp == "all" {
			if n.Seed == 0 {
				n.Seed = core.DefaultSeed
			}
		} else {
			n.Seed = 0
		}
		n.PadUDF = false
		if n.Exp == "figure2" {
			if n.Model == "" {
				n.Model = "and"
			}
			if _, err := core.Figure2Variants(n.Model, n.ZeroInvalid); err != nil {
				return n, err
			}
			if n.MaxFlips <= 0 || n.MaxFlips > 16 {
				n.MaxFlips = 16
			}
		} else {
			n.Model, n.ZeroInvalid, n.MaxFlips = "", false, 0
		}
	default:
		return n, fmt.Errorf("serve: unknown job kind %q (want campaign, scan or eval)", s.Kind)
	}
	return n, nil
}

// ConfigHash is the runctl manifest fingerprint for a normalized spec. It
// hashes exactly the per-kind structs the batch CLIs hash, so a job run
// directory is mutually resumable with the equivalent CLI invocation. The
// engine stamp (core.ResultStamp) is folded in too: a run interrupted
// under one engine revision refuses to resume under another, with a
// *runctl.DriftError on the config field, instead of mixing units
// computed by two engines.
func (s Spec) ConfigHash() string {
	return s.configHash(core.ResultStamp())
}

func (s Spec) configHash(stamp string) string {
	switch s.Kind {
	case KindCampaign:
		return runctl.ConfigHash(struct {
			Stamp       string
			Model       string
			ZeroInvalid bool
			PadUDF      bool
			MaxFlips    int
		}{stamp, s.Model, s.ZeroInvalid, s.PadUDF, s.MaxFlips})
	case KindScan:
		return runctl.ConfigHash(struct {
			Stamp string
			Exp   string
			Seed  uint64
		}{stamp, s.Exp, s.Seed})
	default:
		return runctl.ConfigHash(struct {
			Stamp       string
			Exp         string
			Seed        uint64
			Model       string
			ZeroInvalid bool
			MaxFlips    int
		}{stamp, s.Exp, s.Seed, s.Model, s.ZeroInvalid, s.MaxFlips})
	}
}

// CacheKey derives the result-cache key for a normalized spec under the
// given schema/engine stamp: sha256 over the stamp and the canonical spec
// JSON. Any single config-field change, and any stamp change, yields a
// different key.
func (s Spec) CacheKey(stamp string) string {
	data, err := json.Marshal(s)
	if err != nil {
		// Spec is a plain struct of marshalable fields; this cannot
		// happen, but a panic here must not take the daemon down.
		data = []byte(fmt.Sprintf("%+v", s))
	}
	h := sha256.New()
	h.Write([]byte(stamp))
	h.Write([]byte{0})
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}

// ToolName is the runctl manifest tool string for the spec's kind, shared
// between the daemon and a hypothetical CLI resume of the same directory.
func (s Spec) ToolName() string {
	switch s.Kind {
	case KindCampaign:
		return "glitchemu"
	case KindScan:
		return "glitchscan"
	default:
		return "glitcheval"
	}
}
