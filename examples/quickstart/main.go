// Quickstart: compile a guarded firmware with GlitchResistor, run it
// cleanly, then fire a single instruction-skip glitch at every cycle of
// the guard window and watch the defenses catch the attack.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"glitchlab/internal/core"
	"glitchlab/internal/passes"
	"glitchlab/internal/pipeline"
)

// firmware guards a privileged operation behind a comparison against a
// constant — the pattern the paper's attacks bypass by skipping the branch.
const firmware = `
enum permission { DENIED, GRANTED };

volatile unsigned int request;

unsigned int authorize(unsigned int req) {
	if (req == 0x42) {
		return GRANTED;
	}
	return DENIED;
}

void main(void) {
	request = 7;           // not the magic request
	trigger();
	if (authorize(request) == GRANTED) {
		success();         // the protected operation
	}
	halt();
}
`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	for _, cfg := range []passes.Config{passes.None(), passes.All()} {
		res, err := core.Compile(firmware, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("=== defenses: %s ===\n", cfg.Name())
		fmt.Printf("instrumented: %s\n", res.Report.String())
		fmt.Printf("image: text=%d data=%d bss=%d bytes\n",
			res.Image.Sizes.Text, res.Image.Sizes.Data, res.Image.Sizes.BSS)

		clean, err := core.RunClean(res.Image, 10_000_000)
		if err != nil {
			return err
		}
		fmt.Printf("clean run: reached %q after %d cycles\n", clean.Tag, clean.Cycles)

		// Attack: skip one issue slot at every cycle offset after the
		// trigger, one run per offset (an idealized single glitch with a
		// perfect trigger, as in the paper's Section V).
		m, err := core.NewMachine(res.Image)
		if err != nil {
			return err
		}
		var bypassed, detected, unaffected int
		for cycle := 0; cycle < 200; cycle++ {
			m.Board.Reset()
			c := cycle
			m.Glitch = pipeline.InjectorFunc(func(rel, window int) (pipeline.Event, bool) {
				if rel == c {
					return pipeline.Event{Kind: pipeline.EventSkip}, true
				}
				return pipeline.Event{}, false
			})
			r := m.Run(10_000_000)
			switch r.Tag {
			case "success":
				bypassed++
			case passes.DetectFunc:
				detected++
			default:
				unaffected++
			}
		}
		fmt.Printf("200 single-skip attacks: %d bypassed the guard, %d detected, %d had no effect\n\n",
			bypassed, detected, unaffected)
	}
	fmt.Println("The unprotected build is bypassed by skipping its guard branch;")
	fmt.Println("the protected build detects those same attacks instead.")
	return nil
}
