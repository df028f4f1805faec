package core_test

import (
	"fmt"

	"glitchlab/internal/core"
	"glitchlab/internal/glitcher"
	"glitchlab/internal/passes"
	"glitchlab/internal/pipeline"
)

// ExampleCompile shows the GlitchResistor pipeline: protect a firmware
// with every defense and run it cleanly on the simulated board.
func ExampleCompile() {
	src := `
	enum state { LOCKED, OPEN };
	volatile unsigned int pin;
	void main(void) {
		pin = 1234;
		if (pin == 0) {
			success();
		}
		halt();
	}
	`
	res, err := core.Compile(src, passes.All("pin"))
	if err != nil {
		fmt.Println("compile:", err)
		return
	}
	r, err := core.RunClean(res.Image, 50_000_000)
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	fmt.Printf("shadowed globals: %d\n", res.Report.ShadowedGlobals)
	fmt.Printf("clean run reached: %s\n", r.Tag)
	// Output:
	// shadowed globals: 1
	// clean run reached: halt
}

// ExampleNewMachine demonstrates a targeted glitch attempt against a
// compiled image: skip one issue slot shortly after the trigger and
// observe the defense reaction.
func ExampleNewMachine() {
	res, err := core.Compile(core.IfSuccessFirmware, passes.AllButDelay())
	if err != nil {
		fmt.Println("compile:", err)
		return
	}
	m, err := core.NewMachine(res.Image)
	if err != nil {
		fmt.Println("machine:", err)
		return
	}
	m.Board.Reset()
	m.Glitch = pipeline.InjectorFunc(func(rel, window int) (pipeline.Event, bool) {
		if rel == 40 {
			return pipeline.Event{Kind: pipeline.EventSkip}, true
		}
		return pipeline.Event{}, false
	})
	r := m.Run(100_000)
	fmt.Printf("run ended at: %s\n", r.Tag)
	// Output:
	// run ended at: halt
}

// ExampleRunTable1 runs one of the paper's Table I scans.
func ExampleRunTable1() {
	results, err := core.RunTable1(glitcher.NewModel(core.DefaultSeed), 2, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, r := range results {
		fmt.Printf("%s attempts=%d\n", r.Guard, r.Attempts)
	}
	// Output:
	// while(!a) attempts=78408
	// while(a) attempts=78408
	// while(a!=0xD3B9AEC6) attempts=78408
}
