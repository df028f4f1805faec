package core

import (
	"fmt"

	"glitchlab/internal/analyze"
	"glitchlab/internal/mutate"
)

// EngineRevision is bumped whenever an engine change alters any rendered
// experiment output: a campaign classification fix, a fault-model change,
// a report-layout edit, a defense-pass tweak that moves Table IV-VI
// numbers. Cached daemon results are keyed on ResultStamp, so the bump is
// what retires every result computed by the previous engine — the same
// contract analyze.RulesVersion gives the corpus-lint cache.
const EngineRevision = 2

// ResultStamp fingerprints the result-producing engines for cache keys:
// the manual EngineRevision plus the static-analysis registry version
// (eval jobs render lint findings, so a rule change must also bust them).
// Identical stamps promise byte-identical rendered output for identical
// experiment configurations.
func ResultStamp() string {
	return fmt.Sprintf("engine/v%d %s", EngineRevision, analyze.RulesVersion())
}

// Figure2Variant is one Section IV campaign configuration.
type Figure2Variant struct {
	Model       mutate.Model
	ZeroInvalid bool
}

// Figure2Variants expands a glitchemu-style model selection into the
// campaign variants to run: an empty model means the four published
// Figure 2 configurations (AND, OR, AND-with-zero-invalid, XOR), a named
// model runs alone with the given zero-invalid setting.
func Figure2Variants(model string, zeroInvalid bool) ([]Figure2Variant, error) {
	if model == "" {
		return []Figure2Variant{
			{mutate.AND, false},
			{mutate.OR, false},
			{mutate.AND, true},
			{mutate.XOR, false},
		}, nil
	}
	m, err := mutate.ParseModel(model)
	if err != nil {
		return nil, err
	}
	return []Figure2Variant{{m, zeroInvalid}}, nil
}
