package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"glitchlab/internal/campaign"
	"glitchlab/internal/glitcher"
	"glitchlab/internal/obs"
	"glitchlab/internal/serve"
)

// glitchdClients is the closed loop's client count: each client submits a
// spec, waits for its result, then submits the next.
const glitchdClients = 2

// glitchdFlips are the flip counts of campaign and figure2 jobs. The
// daemon traces every execution of a job to its event stream, so a full
// 16-flip sweep takes seconds and writes hundreds of MB of events; like
// Table VI and table3, such jobs would swamp the latency tail. One-flip
// jobs are left out too: they take about as long as a cache hit plus a
// few fsyncs, and with them the median job falls on the boundary between
// two groups of jobs, where it jumps from run to run.
var glitchdFlips = []int{2, 3}

var (
	glitchdScanExps = []string{"table1a", "table1b", "table1c", "table2", "search"}
	glitchdEvalExps = []string{"table4", "table5", "lint", "figure2"}
)

// campaignUniverse returns one client's half of the campaign specs (or,
// with eval set, of the figure2 eval specs) the glitchd mix draws from;
// the two halves are disjoint, so the clients never coalesce onto each
// other's jobs.
func campaignUniverse(client int, eval bool) []serve.Spec {
	var out []serve.Spec
	i := 0
	for _, model := range []string{"and", "or", "xor"} {
		for _, zero := range []bool{false, true} {
			for _, pad := range []bool{false, true} {
				if eval && pad {
					continue // figure2 eval jobs have no UDF padding
				}
				for _, flips := range glitchdFlips {
					if i%glitchdClients == client {
						s := serve.Spec{Kind: serve.KindCampaign, Model: model, ZeroInvalid: zero, PadUDF: pad, MaxFlips: flips}
						if eval {
							s.Kind, s.Exp = serve.KindEval, "figure2"
						}
						out = append(out, s)
					}
					i++
				}
			}
		}
	}
	return out
}

// glitchdSpecs returns one client's normalized submissions for one
// session, against a fresh daemon whose cache starts empty. Every session
// has the same composition, so neither the seed nor the daemon's speed
// changes the mix: each of the client's 12 campaign specs once, each scan
// experiment once with a drawn seed, each light eval experiment once
// (figure2 with a drawn campaign shape), and one resubmission of an
// earlier spec for every three fresh ones, which hits the cache. The seed
// draws the order, the scan seeds and the resubmitted specs.
func glitchdSpecs(seed uint64, client, session int) ([]serve.Spec, error) {
	rng := rand.New(rand.NewPCG(seed, uint64(client)<<32|uint64(session)))
	fresh := campaignUniverse(client, false)
	for _, exp := range glitchdScanExps {
		fresh = append(fresh, serve.Spec{Kind: serve.KindScan, Exp: exp, Seed: rng.Uint64() | 1})
	}
	fig2 := campaignUniverse(client, true)
	for _, exp := range glitchdEvalExps {
		s := serve.Spec{Kind: serve.KindEval, Exp: exp}
		if exp == "figure2" {
			s = fig2[rng.IntN(len(fig2))]
		}
		fresh = append(fresh, s)
	}
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	// Resubmission slots go anywhere but first.
	slots := make([]bool, len(fresh)+len(fresh)/3)
	for _, i := range rng.Perm(len(slots) - 1)[:len(fresh)/3] {
		slots[i+1] = true
	}
	var out []serve.Spec
	for _, resubmit := range slots {
		if resubmit {
			out = append(out, out[rng.IntN(len(out))])
			continue
		}
		n, err := fresh[0].Normalize()
		if err != nil {
			return nil, err
		}
		out, fresh = append(out, n), fresh[1:]
	}
	return out, nil
}

// daemon is one glitchd instance served over loopback HTTP.
type daemon struct {
	d    *serve.Daemon
	srv  *http.Server
	base string
	dir  string
	done chan error
}

// startDaemon opens a daemon with the default configuration (2 executors,
// queue cap 8) over a fresh state dir and serves it on a loopback
// listener. It makes no request: each request is a TCP connection that
// lingers in TIME_WAIT for a minute after it closes, and the hundreds a
// run sets up would make later set-ups slower.
func startDaemon(dir string) (*daemon, error) {
	d, err := serve.Open(serve.Config{StateDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	s := &daemon{d: d, srv: &http.Server{Handler: d.Handler()}, base: "http://" + ln.Addr().String(), dir: dir, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the listener and the daemon down, waits for both, and removes
// the state dir.
func (s *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
	<-s.done
	s.d.Close()
	_ = os.RemoveAll(s.dir)
}

// jobRecord is one submission as a client saw it.
type jobRecord struct {
	spec      serve.Spec
	body      []byte
	submit    time.Duration // POST round trip
	latency   time.Duration // submit to result bytes received
	cacheHit  bool
	coalesced bool
	err       error
	refused   bool
}

// submitResponse is the part of POST /v1/jobs the client reads.
type submitResponse struct {
	Job struct {
		ID string `json:"id"`
	} `json:"job"`
	CacheHit  bool `json:"cache_hit"`
	Coalesced bool `json:"coalesced"`
}

// do runs one job: POST the spec, then long-poll its result.
func do(hc *http.Client, base string, spec serve.Spec, tr *obs.Tracer, attrs map[string]any) jobRecord {
	rec := jobRecord{spec: spec}
	defer tr.StartSpan("glitchd.job", attrs).End()
	t0 := time.Now()
	body, err := json.Marshal(spec)
	if err != nil {
		rec.err = err
		return rec
	}
	sp := tr.StartSpan("glitchd.submit", attrs)
	resp, err := hc.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		sp.End()
		rec.err = err
		return rec
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.submit = time.Since(t0)
	sp.End()
	switch {
	case err != nil:
		rec.err = err
		return rec
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		rec.refused = true
		rec.err = fmt.Errorf("refused: %s", resp.Status)
		return rec
	case resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK:
		rec.err = fmt.Errorf("submit: %s: %s", resp.Status, data)
		return rec
	}
	var sr submitResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		rec.err = err
		return rec
	}
	rec.cacheHit, rec.coalesced = sr.CacheHit, sr.Coalesced

	sp = tr.StartSpan("glitchd.result", attrs)
	defer sp.End()
	for {
		resp, err := hc.Get(base + "/v1/jobs/" + sr.Job.ID + "/result?wait=1")
		if err != nil {
			rec.err = err
			return rec
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			rec.err = err
			return rec
		}
		if resp.StatusCode == http.StatusOK {
			rec.body = data
			rec.latency = time.Since(t0)
			return rec
		}
		var st serve.Status
		if resp.StatusCode != http.StatusConflict || json.Unmarshal(data, &st) != nil || st.State.Terminal() {
			rec.err = fmt.Errorf("result: %s: %s", resp.Status, data)
			return rec
		}
	}
}

// runSession runs every client's submissions against one fresh daemon and
// returns the jobs and the time they were in flight.
func runSession(dir string, perClient [][]serve.Spec, tr *obs.Tracer) ([]jobRecord, time.Duration, error) {
	s, err := startDaemon(dir)
	if err != nil {
		return nil, 0, err
	}
	defer s.stop()
	hc := &http.Client{Transport: &http.Transport{Proxy: nil, MaxIdleConnsPerHost: glitchdClients}}
	defer hc.CloseIdleConnections()

	sp := tr.StartSpan("glitchd.session", map[string]any{"dir": filepath.Base(dir)})
	t0 := time.Now()
	recs := make([][]jobRecord, len(perClient))
	var wg sync.WaitGroup
	for c, specs := range perClient {
		wg.Add(1)
		go func(c int, specs []serve.Spec) {
			defer wg.Done()
			for i, spec := range specs {
				recs[c] = append(recs[c], do(hc, s.base, spec, tr, map[string]any{
					"client": c, "slot": i, "kind": spec.Kind, "exp": spec.Exp,
				}))
			}
		}(c, specs)
	}
	wg.Wait()
	busy := time.Since(t0)
	sp.End()
	var all []jobRecord
	for _, r := range recs {
		all = append(all, r...)
	}
	return all, busy, nil
}

// engineAttempts reads the glitch attempts the daemon's engines have
// evaluated: campaign executions plus scan grid attempts, as the
// observers the daemon attaches count them.
func engineAttempts() uint64 {
	return obs.Default.Counter(campaign.MetricRuns).Value() +
		obs.Default.Counter(glitcher.MetricAttempts).Value()
}

// glitchdWork is the serving workload.
type glitchdWork struct {
	seed     uint64
	dir      string
	sessions int
	setups   int
}

func newGlitchdWork(seed uint64, dir string) *glitchdWork {
	return &glitchdWork{seed: seed, dir: dir}
}

func (g *glitchdWork) setup() error {
	g.setups++
	s, err := startDaemon(filepath.Join(g.dir, fmt.Sprintf("setup-%d", g.setups)))
	if err != nil {
		return err
	}
	s.stop()
	return nil
}

// sessionSpecs returns every client's submissions for one session.
func (g *glitchdWork) sessionSpecs(session int) ([][]serve.Spec, error) {
	per := make([][]serve.Spec, glitchdClients)
	for c := range per {
		specs, err := glitchdSpecs(g.seed, c, session)
		if err != nil {
			return nil, err
		}
		per[c] = specs
	}
	return per, nil
}

func (g *glitchdWork) measure(seconds float64, tr *obs.Tracer, seg *segment) {
	start := time.Now()
	before := engineAttempts()
	var jobs []jobRecord
	for time.Since(start).Seconds() < seconds {
		seg.sampleSetup(false)
		g.sessions++
		per, err := g.sessionSpecs(g.sessions)
		if err == nil {
			var recs []jobRecord
			var busy time.Duration
			recs, busy, err = runSession(filepath.Join(g.dir, fmt.Sprintf("session-%d", g.sessions)), per, tr)
			seg.busy += busy
			jobs = append(jobs, recs...)
		}
		if err != nil {
			seg.attempted++
			seg.fail("session %d: %v", g.sessions, err)
			break
		}
	}
	seg.attempts += engineAttempts() - before
	hits := 0
	for _, j := range jobs {
		if j.err == nil {
			seg.latencies = append(seg.latencies, ms(j.latency))
		}
		if j.cacheHit {
			hits++
		}
	}
	seg.note("glitchd: %d jobs, %d cache hits", len(jobs), hits)
	checkJobs(jobs, seg)
}

// checkJobs requires every served body, cache hits included, to be
// byte-equal to a direct serve.Exec of the same normalized spec. Each
// job is one attempted operation; failed, refused and wrong-output jobs
// count as failed. The direct Execs run one at a time, after the clock
// has stopped, and checkJobs returns each distinct spec's Exec time by
// cache key.
func checkJobs(jobs []jobRecord, seg *segment) map[string]time.Duration {
	refs := map[string][]byte{}
	errs := map[string]error{}
	times := map[string]time.Duration{}
	for _, j := range jobs {
		k := j.spec.CacheKey("")
		if _, ok := refs[k]; ok {
			continue
		}
		var buf bytes.Buffer
		t0 := time.Now()
		errs[k] = serve.Exec(j.spec, serve.Env{Workers: 1}, &buf)
		times[k] = time.Since(t0)
		refs[k] = buf.Bytes()
	}

	for _, j := range jobs {
		seg.attempted++
		k := j.spec.CacheKey("")
		switch {
		case j.err != nil:
			seg.fail("job %+v: %v", j.spec, j.err)
		case errs[k] != nil:
			seg.fail("direct exec %+v: %v", j.spec, errs[k])
		default:
			if err := checkBody(j.body, refs[k]); err != nil {
				seg.fail("job %+v: %v", j.spec, err)
			}
		}
	}
	return times
}

// checkBody compares a served body with the direct Exec bytes.
func checkBody(served, direct []byte) error {
	if !bytes.Equal(served, direct) {
		return fmt.Errorf("served body (%d bytes, sha256 %s) differs from direct Exec (%d bytes, sha256 %s)",
			len(served), digest(served)[:16], len(direct), digest(direct)[:16])
	}
	return nil
}
