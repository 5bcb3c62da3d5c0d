package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"seedblast/internal/core"
	"seedblast/internal/index"
	"seedblast/internal/service"
	"seedblast/internal/telemetry"
)

// clients is the closed loop's width: two callers, each waiting for
// its reply before sending the next job, over exactly two connections
// to the daemon — the box has two CPUs and the daemon shares them.
const clients = 2

// pollInterval is the base cadence of service.Client.Wait.
const pollInterval = time.Millisecond

// runService runs service-blastp: a seedservd child process driven by
// a closed loop of clients over a pool of distinct jobs.
//
//  1. in process, each pool entry is searched once, as the daemon will
//     search it, for the reference every served job must equal;
//  2. set-up, repeated: start the daemon, wait until it answers, and
//     run the cold-cache job of each subject bank;
//  3. the timed window: the closed loop, every job verified;
//  4. with trace, a traced closed loop timing each client call with
//     /metrics scraped around it, and the in-process traced pass over
//     the pool.
func runService(ctx context.Context, p params) (*outcome, error) {
	if p.daemon == "" {
		return nil, fmt.Errorf("%s needs the seedservd binary (-daemon)", wService)
	}
	pool, digest, err := serviceInputs(p.seed, p.sizes)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.digest = digest
	ref, err := searchReference(ctx, pool, p.sizes.Banks)
	if err != nil {
		return nil, err
	}

	served := make([]bool, len(pool))
	var d *daemon
	defer func() {
		if d != nil {
			if err := d.stop(); err != nil {
				logf("%v", err)
			}
		}
	}()
	setups := make([]float64, 0, p.sizes.SetupReps)
	for range p.sizes.SetupReps {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		if d, err = startDaemon(p.daemon); err != nil {
			return nil, err
		}
		if err := d.waitHealthy(ctx); err != nil {
			return nil, err
		}
		// Pool entries 0..Banks-1 cover every bank once.
		for i, e := range pool[:p.sizes.Banks] {
			out.attempted++
			if _, err := runJob(ctx, d.client, e); err != nil {
				out.fail("cold job %d: %v", i, err)
				continue
			}
			served[i] = true
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	loop := closedLoop(ctx, d.client, pool, p.sizes.Banks, time.Now().Add(p.seconds), 0, out, served)
	if len(loop.total) == 0 {
		return nil, fmt.Errorf("no job completed in the timed window")
	}
	rss, err := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	var found, total int
	for i, e := range pool {
		if served[i] {
			found += e.truthFound()
			total += len(e.truth)
		}
	}
	ms := durationsIn(loop.total, time.Millisecond)
	v := out.values
	v["setup_s"] = median(setups)
	v["search_s"] = median(durationsIn(loop.total, time.Second))
	v["jobs_per_s"] = float64(len(loop.total)) / loop.elapsed.Seconds()
	v["job_p50_ms"] = median(ms)
	v["job_p99_ms"] = nearestRank(ms, 0.99)
	v["recall"] = ratio(float64(found), float64(total))
	v["peak_rss_mb"] = rss
	if !p.trace {
		return out, nil
	}
	if err := traceService(ctx, d, pool, ref, p.sizes, out, served); err != nil {
		return nil, err
	}
	return out, nil
}

// reference is the in-process account of the pool: how the daemon's
// engine alone fares on each job.
type reference struct {
	opts        core.Options
	bankIx      []*index.Index  // each subject bank's index, as the daemon caches it
	engine      []time.Duration // per pool entry: Search(...).Collect() with the cached index
	maxBuffered int
}

// searchReference searches every pool entry in process, as the daemon
// does — default options, the subject bank's index built once — and
// stores the matches each served job must equal.
func searchReference(ctx context.Context, pool []*poolEntry, banks int) (*reference, error) {
	s, err := core.NewSearcher()
	if err != nil {
		return nil, err
	}
	ref := &reference{opts: s.Options(), bankIx: make([]*index.Index, banks), engine: make([]time.Duration, len(pool))}
	o := &ref.opts
	for _, e := range pool[:banks] {
		if ref.bankIx[e.bankIdx], err = index.BuildParallel(e.subjects, o.Seed, o.N, o.Workers); err != nil {
			return nil, fmt.Errorf("reference index: %w", err)
		}
	}
	for i, e := range pool {
		t := time.Now()
		res := s.Search(ctx, core.NewProteinTarget(e.query), ref.target(e))
		ms, err := res.Collect()
		ref.engine[i] = time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("reference search: %w", err)
		}
		sum, err := res.Summary()
		if err != nil {
			return nil, fmt.Errorf("reference search: %w", err)
		}
		ref.maxBuffered = max(ref.maxBuffered, sum.Pipeline.MaxBufferedMatches)
		e.matches = ms
		e.want = make([]service.AlignmentJSON, len(ms))
		for j := range ms {
			e.want[j] = wireAlignment(&ms[j])
		}
	}
	return ref, nil
}

// wireAlignment is the alignment a protein job's fetch must return
// for m. It is spelled out here rather than taken from the service's
// encoder, so that the check covers the encoder too.
func wireAlignment(m *core.Match) service.AlignmentJSON {
	return service.AlignmentJSON{
		Query:    m.Query.ID,
		Subject:  m.Subject.ID,
		Score:    m.Score,
		BitScore: m.BitScore,
		EValue:   m.EValue,
		QStart:   m.Q.Start,
		QEnd:     m.Q.End,
		SStart:   m.S.Start,
		SEnd:     m.S.End,
	}
}

// target is the entry's subject bank with its cached index adopted.
func (ref *reference) target(e *poolEntry) core.Target {
	tgt := core.NewProteinTarget(e.subjects)
	tgt.Adopt(ref.bankIx[e.bankIdx])
	return tgt
}

// traceService is service-blastp's traced pass: a fixed number of
// jobs through the daemon with each client call timed and the cache
// counters scraped around them, then the in-process layer pass and
// the single-worker baseline over the pool, summed.
func traceService(ctx context.Context, d *daemon, pool []*poolEntry, ref *reference, sz sizes, out *outcome, served []bool) error {
	before, err := d.scrape(ctx)
	if err != nil {
		return err
	}
	traced := closedLoop(ctx, d.client, pool, 0, time.Time{}, sz.TracedJobs, out, served)
	after, err := d.scrape(ctx)
	if err != nil {
		return err
	}
	v := out.values
	for _, c := range []struct {
		name string
		ds   []time.Duration
	}{{"submit", traced.submit}, {"wait", traced.wait}, {"fetch", traced.fetch}} {
		ms := durationsIn(c.ds, time.Millisecond)
		v["service."+c.name+"_ms.p99"] = nearestRank(ms, 0.99)
		v["service."+c.name+"_ms.p50"] = median(ms)
	}
	delta := func(name string) float64 {
		a, _ := after.Value(name)
		b, _ := before.Value(name)
		return a - b
	}
	hits, misses := delta("seedservd_index_cache_hits_total"), delta("seedservd_index_cache_misses_total")
	v["service.cache_hit_ratio"] = ratio(hits, hits+misses)
	var bytes int
	for _, e := range pool {
		bytes += e.size
	}
	v["service.request_bytes"] = float64(bytes) / float64(len(pool))
	v["service.engine_ms"] = median(durationsIn(ref.engine, time.Millisecond))

	s1, err := core.NewSearcher(core.WithWorkers(1))
	if err != nil {
		return err
	}
	sum := &layerPass{}
	var workers1, engine time.Duration
	for i, e := range pool {
		out.attempted++
		lp, err := runLayers(e.query, e.subjects, ref.bankIx[e.bankIdx], ref.opts)
		if err == nil {
			err = lp.checkMatches(e.matches)
		}
		if err != nil {
			out.fail("traced pass on pool entry %d: %v", i, err)
		} else {
			sum.add(lp)
		}

		out.attempted++
		t := time.Now()
		ms1, err := s1.Search(ctx, core.NewProteinTarget(e.query), ref.target(e)).Collect()
		workers1 += time.Since(t)
		if err != nil || !sameMatches(ms1, e.matches) {
			out.fail("single-worker search on pool entry %d differs from the reference (error: %v)", i, err)
		}
		engine += ref.engine[i]
	}
	out.setLayers(sum, engine)

	var build time.Duration
	var entries int
	o := &ref.opts
	for _, e := range pool[:sz.Banks] {
		t := time.Now()
		ix, err := index.BuildParallel(e.subjects, o.Seed, o.N, o.Workers)
		build += time.Since(t)
		if err != nil {
			return fmt.Errorf("traced pass: %w", err)
		}
		entries += ix.NumEntries()
	}
	v["translate.frames_s"] = 0 // protein banks are not translated
	v["index.build_s"] = build.Seconds()
	v["index.entries"] = float64(entries)
	v["pipeline.workers1_s"] = workers1.Seconds()
	v["pipeline.max_buffered_matches"] = float64(ref.maxBuffered)
	return nil
}

// truthFound counts the entry's true (query, subject) pairs among its
// reference alignments, which every served job has been checked to
// equal.
func (e *poolEntry) truthFound() int {
	seen := make(map[[2]string]bool)
	for _, a := range e.want {
		if k := [2]string{a.Query, a.Subject}; e.truth[k] {
			seen[k] = true
		}
	}
	return len(seen)
}

// jobTimes is one job's client-side account.
type jobTimes struct{ submit, wait, fetch time.Duration }

// runJob submits one pool entry, waits for it, fetches its alignments
// and checks them against the entry's reference.
func runJob(ctx context.Context, cl *service.Client, e *poolEntry) (jobTimes, error) {
	var jt jobTimes
	t := time.Now()
	id, err := cl.Submit(ctx, e.req)
	jt.submit = time.Since(t)
	if err != nil {
		return jt, err
	}
	t = time.Now()
	st, err := cl.Wait(ctx, id, pollInterval)
	jt.wait = time.Since(t)
	if err != nil {
		return jt, err
	}
	if st.State != string(service.JobDone) {
		return jt, fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
	}
	t = time.Now()
	got, err := cl.Alignments(ctx, id)
	jt.fetch = time.Since(t)
	if err != nil {
		return jt, err
	}
	if !slices.Equal(got, e.want) {
		return jt, fmt.Errorf("job %s: its %d alignments differ from the %d of the in-process reference", id, len(got), len(e.want))
	}
	return jt, nil
}

// loopResult is what a closed loop measured over its verified jobs.
type loopResult struct {
	submit, wait, fetch, total []time.Duration
	elapsed                    time.Duration
}

// closedLoop runs the clients, each sending pool entries in turn
// (starting at entry start) and the next only after the previous
// reply, until deadline passes or, when jobs > 0, until jobs jobs have
// been sent. Failures are recorded in out; served marks the pool
// entries some verified job covered.
func closedLoop(ctx context.Context, cl *service.Client, pool []*poolEntry, start int,
	deadline time.Time, jobs int, out *outcome, served []bool) *loopResult {
	var (
		mu   sync.Mutex
		next = start
		res  = &loopResult{}
		wg   sync.WaitGroup
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if (jobs > 0 && next-start >= jobs) || (jobs == 0 && !time.Now().Before(deadline)) {
			return 0, false
		}
		next++
		return (next - 1) % len(pool), true
	}
	t0 := time.Now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				jt, err := runJob(ctx, cl, pool[i])
				mu.Lock()
				out.attempted++
				if err != nil {
					out.fail("job on pool entry %d: %v", i, err)
				} else {
					served[i] = true
					res.submit = append(res.submit, jt.submit)
					res.wait = append(res.wait, jt.wait)
					res.fetch = append(res.fetch, jt.fetch)
					res.total = append(res.total, jt.submit+jt.wait+jt.fetch)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(t0)
	return res
}

// daemon is a running seedservd child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	hc     *http.Client
	client *service.Client
	done   chan struct{} // closed once the process has exited
}

// startDaemon starts seedservd on a free loopback port. The child is
// killed if this process dies first.
func startDaemon(bin string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("free port: %w", err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, fmt.Errorf("free port: %w", err)
	}
	cmd := exec.Command(bin, "-addr", addr)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting seedservd: %w", err)
	}
	hc := &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
	}
	d := &daemon{
		cmd:    cmd,
		base:   "http://" + addr,
		hc:     hc,
		client: service.NewClient("http://"+addr, service.ClientConfig{HTTPClient: hc}),
		done:   make(chan struct{}),
	}
	go func() {
		_ = cmd.Wait() // an interrupted daemon's exit status says nothing the benchmark needs
		close(d.done)
	}()
	return d, nil
}

// waitHealthy polls /healthz every millisecond until the daemon
// answers, it exits, or 10 s pass.
func (d *daemon) waitHealthy(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for {
		if err := d.client.Healthy(ctx); err == nil {
			return nil
		}
		select {
		case <-d.done:
			return fmt.Errorf("seedservd exited before it was healthy: %s", d.cmd.ProcessState)
		case <-ctx.Done():
			return fmt.Errorf("seedservd not healthy: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// scrape reads the daemon's /metrics.
func (d *daemon) scrape(ctx context.Context) (telemetry.Families, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	fams, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	return fams, nil
}

// stop interrupts the daemon, which shuts down gracefully, and waits
// for it to exit; after 10 s it is killed. Stopping twice is harmless.
func (d *daemon) stop() error {
	d.hc.CloseIdleConnections()
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("interrupting seedservd: %w", err)
	}
	select {
	case <-d.done:
		return nil
	case <-time.After(10 * time.Second):
	}
	if err := d.cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("killing seedservd: %w", err)
	}
	<-d.done
	return nil
}
