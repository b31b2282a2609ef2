package main

// One pass: one service process, set up several times, warmed up, then
// measured in several consecutive reference windows and a max-rate sweep.
// Summarizing over the windows (report.go) keeps a burst of interference
// from another tenant of the host to one window instead of the whole
// figure.

import (
	"fmt"
	"math/rand"
	"time"
)

// Pass timing. The reference windows and the sweep steps add up to about
// --seconds; warm-up, ramps and pauses come on top.
const (
	setupRounds = 9
	refWindows  = 24 // reference windows per pass, summarized in report.go
	warmup      = 3 * time.Second
	stepRamp    = 250 * time.Millisecond // at a step's rate before its window
	pause       = 100 * time.Millisecond // lets the service drain between steps
	minGridIdx  = -4 * gridPerDoubling   // the sweep stops at 1/16 of the reference rate
	maxGridIdx  = 5 * gridPerDoubling    // and at 32x
	scrapeEvery = 100 * time.Millisecond // queue gauge sampling, traced pass only
	stepParts   = 4                      // a step's p99 is the median of up to this many sub-window p99s
)

// refWindow is one reference-rate measurement window and what was scraped
// at its edges.
type refWindow struct {
	wn             *window
	span           time.Duration
	statsA, statsB statsSummary
	cpu            time.Duration
	trace          traceReport
	queueMax       int
	pendingMax     int
}

// pass is everything one service process produced.
type pass struct {
	w      workload
	traced bool

	setups []time.Duration
	newNs  []int64

	refs    []refWindow
	rss     int64
	steps   []step
	maxStep step // the highest passing step

	attempted, failed int
	violations        []string
}

func runPass(w workload, seed int64, seconds time.Duration, traced bool) (*pass, error) {
	p := &pass{w: w, traced: traced}
	var svc *service
	for i := 0; i < setupRounds; i++ {
		s, err := startService(w, traced)
		if err != nil {
			return nil, err
		}
		p.setups = append(p.setups, s.setup)
		p.newNs = append(p.newNs, s.newNs)
		if i < setupRounds-1 {
			s.stop()
		} else {
			svc = s
		}
	}
	defer svc.stop()

	leaves := buildTree().Leaves()
	cdf := zipfCDF(w.hotSet, zipfS)
	d, err := newDriver(w, svc.addr, traced)
	if err != nil {
		return nil, err
	}
	defer d.close()

	var clock time.Duration // the popularity clock, continuous across windows
	phase := int64(0)
	runAt := func(rate float64, span time.Duration) *window {
		rng := rand.New(rand.NewSource(seed*1_000_003 + phase))
		phase++
		wn := d.run(w.schedule(rng, rate, span, clock, leaves, cdf), span)
		clock += span
		p.count(wn)
		return wn
	}
	refD := seconds * 9 / 10 / refWindows
	measure := func() error {
		rw, err := p.measureRef(svc, func() *window { return runAt(w.refRate, refD) })
		if err != nil {
			return err
		}
		rw.span = refD
		p.refs = append(p.refs, rw)
		return nil
	}

	runAt(w.refRate, warmup)
	for len(p.refs) < refWindows {
		if err := measure(); err != nil {
			return nil, err
		}
	}

	// The max-rate sweep over fixed offered rates, starting at the
	// reference rate. It runs last: the placement WebWave settles into
	// depends on the load it has seen, and the rates the sweep visits
	// depend on how its steps went.
	limitMs := float64(p99Limit) / float64(time.Millisecond)
	tried := map[int]bool{}
	stepD := seconds / 80
	for k, ok := sweepNext(tried, minGridIdx, maxGridIdx); ok; k, ok = sweepNext(tried, minGridIdx, maxGridIdx) {
		rate := rateGrid(w.refRate, k)
		st := p.runStep(rate, stepD, limitMs, runAt)
		// Interference from other tenants of the host only ever fails a
		// step, so a failing step gets one more try.
		if !st.Pass {
			if again := p.runStep(rate, stepD, limitMs, runAt); again.Pass {
				st = again
			}
			st.Retried = true
		}
		tried[k] = st.Pass
		p.steps = append(p.steps, st)
	}
	best := maxRate(p.steps)
	for _, s := range p.steps {
		if s.Rate == best {
			p.maxStep = s
		}
	}

	u, err := svc.usage()
	if err != nil {
		return nil, err
	}
	p.rss = u.MaxRSS
	if final, err := scrape(svc); err != nil {
		return nil, err
	} else if len(final.OverBudget) > 0 {
		p.violations = append(p.violations, fmt.Sprintf("cache over its %d-byte budget at nodes %v", w.budget, final.OverBudget))
	}
	return p, nil
}

// runStep runs one sweep step: a pause, a ramp at the step's rate, then
// the measured window.
func (p *pass) runStep(rate float64, d time.Duration, limitMs float64, runAt func(float64, time.Duration) *window) step {
	time.Sleep(pause)
	runAt(rate, stepRamp)
	return stepOf(runAt(rate, d), rate, limitMs)
}

// measureRef runs one reference window, scraping the cluster's counters
// and the service's CPU time at its two edges only. In the traced pass it also
// records the taps and samples the queue gauges during the window.
func (p *pass) measureRef(svc *service, run func() *window) (refWindow, error) {
	var rw refWindow
	var err error
	if rw.statsA, err = scrape(svc); err != nil {
		return rw, err
	}
	ua, err := svc.usage()
	if err != nil {
		return rw, err
	}
	stopSampler := func() {}
	if p.traced {
		if err := svc.getJSON("/bench/trace/start", nil); err != nil {
			return rw, err
		}
		stopSampler = sample(svc, &rw)
	}
	rw.wn = run()
	if p.traced {
		stopSampler()
		if err := svc.getJSON("/bench/trace/stop", &rw.trace); err != nil {
			return rw, err
		}
	}
	if rw.statsB, err = scrape(svc); err != nil {
		return rw, err
	}
	ub, err := svc.usage()
	if err != nil {
		return rw, err
	}
	rw.cpu = ub.CPU - ua.CPU
	return rw, nil
}

func scrape(svc *service) (statsSummary, error) {
	var s statsSummary
	err := svc.getJSON("/bench/stats", &s)
	return s, err
}

// sample polls the service's queue gauges into rw until the returned stop
// runs.
func sample(svc *service, rw *refWindow) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if s, err := scrape(svc); err == nil {
					rw.queueMax = max(rw.queueMax, s.QueueLen)
					rw.pendingMax = max(rw.pendingMax, s.PendingLen)
				}
			}
		}
	}()
	return func() { close(quit); <-done }
}

// count adds a window's requests to the pass totals and keeps the first
// failure reasons.
func (p *pass) count(wn *window) {
	for _, r := range wn.done() {
		p.attempted++
		if r.ok {
			continue
		}
		p.failed++
		if len(p.violations) < 20 {
			p.violations = append(p.violations, r.err)
		}
	}
}

func stepOf(wn *window, rate, limitMs float64) step {
	s := step{Rate: rate, Sent: wn.sent, Unsent: wn.unsent(), BacklogMax: wn.backlogMax}
	for _, r := range wn.done() {
		if r.ok {
			s.Succeeded++
		} else {
			s.Failed++
		}
	}
	s.P99ms = finiteMs(medianOfQuantiles(latencySeq(wn, isGet), 0.99, stepParts))
	s.Pass = judge(s, limitMs)
	return s
}
