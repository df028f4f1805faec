// Command glitchbench is glitchlab's benchmark: four workloads run in one
// process through the engines' public entry points (core.RunTable6Cell,
// serve.Exec, and serve.Daemon over loopback HTTP), with every output
// checked. run.sh builds it from source; from the root of a checkout:
//
//	bash glitchbench/run.sh --workload table6 --seed 1 --seconds 10 --trace 0
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) prints the per-layer metrics and the tracing overhead, and
// writes its spans to .bench_out/. The last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics.
// README.md documents the workloads, the metrics and what should move them.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"glitchlab/internal/obs"
	"glitchlab/internal/obs/query"
)

// outDir, relative to the checkout root, holds daemon state dirs while a
// run lasts and the trace files of traced runs.
const outDir = ".bench_out"

// Host speed drifts from one second to the next, so a run times its
// workload's set-up in short bursts spread over the run rather than in
// one block: one burst before the first job, one between jobs whenever
// setupEvery has passed since the last, and one after the checks. Each
// burst sets up at least setupMinRepeats times and for at least
// setupBurst, collecting garbage before each timed set-up; one set-up
// takes about a millisecond. setup_s is the median of them all.
const (
	setupBurst      = 150 * time.Millisecond
	setupEvery      = time.Second
	setupMinRepeats = 5
)

// workloads maps each workload name to its constructor.
var workloads = map[string]func(seed uint64, dir string) (workload, error){
	"table6": func(seed uint64, _ string) (workload, error) {
		return newTable6Work(seed), nil
	},
	"scans": func(seed uint64, _ string) (workload, error) {
		return newScansWork(seed)
	},
	"campaign": func(seed uint64, _ string) (workload, error) {
		return newCampaignWork(seed)
	},
	"glitchd": func(seed uint64, dir string) (workload, error) {
		return newGlitchdWork(seed, dir), nil
	},
}

// workload is one benchmark workload. measure runs jobs for about the
// given time and checks their outputs, calling seg.sampleSetup between
// jobs, so that setup is timed throughout the run.
type workload interface {
	setup() error
	measure(seconds float64, tr *obs.Tracer, seg *segment)
}

// segment collects one measured stretch of a workload.
type segment struct {
	setup     func() error // the workload's set-up, timed by sampleSetup
	tr        *obs.Tracer
	lastSetup time.Time
	setups    []float64     // seconds per set-up
	latencies []float64     // milliseconds per job
	busy      time.Duration // time spent running jobs, set-up and checks excluded
	attempts  uint64        // glitch attempts the jobs evaluated
	attempted int           // operations attempted: jobs and checks
	failed    int           // failed, refused or wrong-output operations
	notes     []string
}

func (s *segment) note(format string, args ...any) {
	s.notes = append(s.notes, fmt.Sprintf(format, args...))
}

func (s *segment) fail(format string, args ...any) {
	s.failed++
	s.note("FAIL "+format, args...)
}

// add merges o into s.
func (s *segment) add(o *segment) {
	s.setups = append(s.setups, o.setups...)
	s.latencies = append(s.latencies, o.latencies...)
	s.busy += o.busy
	s.attempts += o.attempts
	s.attempted += o.attempted
	s.failed += o.failed
	s.notes = append(s.notes, o.notes...)
}

// sampleSetup runs a burst of timed set-ups when setupEvery has passed
// since the last burst, or always when force is set. A segment without a
// set-up does nothing.
func (s *segment) sampleSetup(force bool) {
	if s.setup == nil || !force && time.Since(s.lastSetup) < setupEvery {
		return
	}
	start := time.Now()
	for i := 0; i < setupMinRepeats || time.Since(start) < setupBurst; i++ {
		runtime.GC()
		t0 := time.Now()
		sp := s.tr.StartSpan("bench.setup", nil)
		err := s.setup()
		sp.End()
		s.attempted++
		if err != nil {
			s.fail("setup: %v", err)
			continue
		}
		s.setups = append(s.setups, time.Since(t0).Seconds())
	}
	s.lastSetup = time.Now()
}

// measureSegment measures w for about the given time, with set-up bursts
// before, between and after its jobs.
func measureSegment(w workload, seconds float64, tr *obs.Tracer) *segment {
	seg := &segment{setup: w.setup, tr: tr}
	seg.sampleSetup(true)
	w.measure(seconds, tr, seg)
	seg.sampleSetup(true)
	return seg
}

// e2e computes the end-to-end metrics of a segment.
func (s *segment) e2e() map[string]float64 {
	busy := s.busy.Seconds()
	rate := func(n float64) float64 {
		if busy <= 0 {
			return 0
		}
		return n / busy
	}
	t, _ := tail(s.latencies)
	return map[string]float64{
		"setup_s":             median(s.setups),
		"attempts_per_s":      rate(float64(s.attempts)),
		"job_latency_p50_ms":  median(s.latencies),
		"job_latency_tail_ms": t,
		"jobs_per_s":          rate(float64(len(s.latencies))),
		"peak_rss_mb":         peakRSSMiB(),
	}
}

// jsonMetric is one metric of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "glitchbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("glitchbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: table6, scans, campaign or glitchd")
	seed := fs.Uint64("seed", 1, "workload seed (1 = the published fault-model seed)")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	traced := fs.Int("trace", 0, "1 = traced run: per-layer metrics and tracing overhead")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mk, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	tmp := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o777); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	w, err := mk(*seed, tmp)
	if err != nil {
		return err
	}

	ref := hostRefLoop()
	fmt.Printf("host.ref_loop_ms %.4f\n", ref)

	var seg *segment
	metrics := map[string]jsonMetric{}
	if *traced == 0 {
		seg = measureSegment(w, *seconds, nil)
		vals := seg.e2e()
		for _, m := range e2eMetrics {
			metrics[m.Name] = jsonMetric{vals[m.Name], m.Unit}
		}
		_, pct := tail(seg.latencies)
		fmt.Printf("%s: %d jobs; job_latency_tail_ms is their p%.1f; %d set-ups\n",
			*name, len(seg.latencies), pct, len(seg.setups))
	} else {
		seg, err = tracedRun(w, *name, *seed, *seconds, ref, tmp, metrics)
		if err != nil {
			return err
		}
	}
	for _, n := range seg.notes {
		fmt.Println(n)
	}
	line, err := json.Marshal(resultLine{
		Correct:   seg.failed == 0,
		Attempted: seg.attempted,
		Failed:    seg.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// tracedRun measures the workload untraced for half the time and traced
// for the other half, reports the difference per end-to-end metric, runs
// the per-layer ladder under the same tracer, and writes the spans out in
// the trace format glitchtrace reads.
func tracedRun(w workload, name string, seed uint64, seconds, ref float64,
	tmp string, metrics map[string]jsonMetric) (*segment, error) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)

	untraced := measureSegment(w, seconds/2, nil)
	traced := measureSegment(w, seconds/2, tr)
	u, t := untraced.e2e(), traced.e2e()

	seg := &segment{}
	seg.add(untraced)
	seg.add(traced)
	layers := runLadder(seed, tmp, tr, seg)
	layers["host.ref_loop_ms"] = ref
	for _, m := range e2eMetrics {
		layers[overheadPrefix+m.Name] = t[m.Name] - u[m.Name]
	}
	tr.Close()

	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", name, seed))
	if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
		return nil, err
	}
	seg.attempted++
	if trace, err := query.Load(bytes.NewReader(buf.Bytes())); err != nil || len(trace.Rollup()) == 0 {
		seg.fail("trace %s does not load: %v", path, err)
	}
	fmt.Printf("trace written to %s\n", path)
	fmt.Printf("%-32s %14s %-6s %-32s %s\n", "per-layer metric", "value", "unit", "moves", "on")
	for _, m := range allLayerMetrics() {
		v, ok := layers[m.Name]
		if !ok {
			seg.fail("layer metric %s was not measured", m.Name)
			continue
		}
		metrics[m.Name] = jsonMetric{v, m.Unit}
		fmt.Printf("%-32s %14.4f %-6s %-32s %s\n", m.Name, v, m.Unit, m.Moves, m.On)
	}
	return seg, nil
}
