package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"crossmatch"
	"crossmatch/internal/core"
)

// setupReps is how often a run builds its inputs and starts its system;
// setup_s is the median. The last build serves the first timed pass.
const setupReps = 5

// tally is one engine's outcome, in the form the gate compares.
type tally struct {
	revenue  float64 // summed in ascending platform order
	served   int
	platform []float64
}

func tallyOf(res *crossmatch.SimResult) (tally, error) {
	if res == nil {
		return tally{}, fmt.Errorf("no result")
	}
	if err := res.Validate(); err != nil {
		return tally{}, fmt.Errorf("invalid matching: %w", err)
	}
	ids := make([]crossmatch.PlatformID, 0, len(res.Platforms))
	for id := range res.Platforms {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var t tally
	for _, id := range ids {
		p := res.Platforms[id]
		t.revenue += p.Stats.Revenue
		t.served += p.Stats.Served
		t.platform = append(t.platform, p.Stats.Revenue)
	}
	return t, nil
}

// oracle runs SimulateContext — the offline runtime of the same code —
// on each engine's input; every pass must reproduce it bit for bit.
func (fx *fixture) oracle() ([]tally, error) {
	parts := fx.parts
	if parts == nil {
		parts = []*core.Stream{fx.stream}
	}
	opts := []crossmatch.Option{crossmatch.WithSeed(fx.seed)}
	if fx.shards > 1 {
		opts = append(opts, crossmatch.WithShards(fx.shards))
	}
	var want []tally
	for _, part := range parts {
		res, err := crossmatch.SimulateContext(context.Background(), part, fx.alg, opts...)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		t, err := tallyOf(res)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		want = append(want, t)
	}
	return want, nil
}

// compare returns "" when got reproduces want bit for bit, else what
// differs.
func compare(got []*crossmatch.SimResult, want []tally) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, want %d", len(got), len(want))
	}
	for i, res := range got {
		g, err := tallyOf(res)
		if err != nil {
			return fmt.Sprintf("engine %d: %v", i, err)
		}
		w := want[i]
		if math.Float64bits(g.revenue) != math.Float64bits(w.revenue) || g.served != w.served || !slices.Equal(g.platform, w.platform) {
			return fmt.Sprintf("engine %d: revenue %v served %d, oracle %v served %d", i, g.revenue, g.served, w.revenue, w.served)
		}
	}
	return ""
}

func totalRevenue(ts []tally) float64 {
	sum := 0.0
	for _, t := range ts {
		sum += t.revenue
	}
	return sum
}

// phase is one timed stretch of whole passes. Each pass offers the
// same events, so a run reports the median over its passes: a burst of
// contention on a shared machine moves one pass, not the median.
type phase struct {
	rec      recorder
	wall     time.Duration
	rates    []float64             // events decided per second, per pass
	latency  map[float64][]float64 // per latencyQuantiles entry, its value (ms) in each pass
	samples  int                   // decision latencies recorded over all passes
	rt0, rt1 runtimeStats
	mismatch string
}

func (ph *phase) eventsPerS() float64 { return median(ph.rates) }

// latencyQuantiles are the decision-latency quantiles each pass takes
// over every one of its samples.
var latencyQuantiles = []float64{0.50, 0.75, 0.90, 0.99, 0.999}

// latencyMs is the median over passes of the q-quantile of decision
// latency; q is one of latencyQuantiles.
func (ph *phase) latencyMs(q float64) float64 { return median(ph.latency[q]) }

// timed runs whole passes for about seconds of pass time: at least
// one, and another only while half of one still fits. sys, when
// non-nil, is already started and serves the first pass. Each pass is
// checked against want.
func timed(fx *fixture, sys system, seconds float64, inst *instruments, want []tally) (*phase, error) {
	ph := &phase{rt0: readRuntime(), latency: map[float64][]float64{}}
	for {
		if sys == nil {
			var err error
			if sys, err = fx.start(inst); err != nil {
				return nil, err
			}
		}
		decided := ph.rec.attempted - ph.rec.failed
		t0 := time.Now()
		err := sys.run(&ph.rec)
		d := time.Since(t0)
		got, cerr := sys.close()
		sys = nil
		if err != nil {
			return nil, err
		}
		if cerr != nil {
			return nil, cerr
		}
		if m := compare(got, want); m != "" && ph.mismatch == "" {
			ph.mismatch = fmt.Sprintf("pass %d: %s", len(ph.rates), m)
		}
		ph.wall += d
		ph.rates = append(ph.rates, float64(ph.rec.attempted-ph.rec.failed-decided)/d.Seconds())
		for _, q := range latencyQuantiles {
			ph.latency[q] = append(ph.latency[q], quantile(ph.rec.samples, q))
		}
		// Every pass re-uses one sample buffer, so the harness's share of
		// peak_rss_mb does not grow with the number of passes.
		ph.samples += len(ph.rec.samples)
		ph.rec.samples = ph.rec.samples[:0]
		// Start another pass only while at least half of one still fits.
		if left := seconds - ph.wall.Seconds(); left < ph.wall.Seconds()/float64(len(ph.rates))/2 {
			break
		}
	}
	ph.rt1 = readRuntime()
	return ph, nil
}

// report is everything a run prints.
type report struct {
	metrics      map[string]metric
	attempted    int64
	failed       int64
	mismatch     string
	streamEvents int
	passes       int
	samples      int
	notes        []string
}

func runWorkload(w *workload, cfg config) (*report, error) {
	var (
		fx           *fixture
		sys          system
		setups, gens []float64
	)
	for i := 0; i < setupReps; i++ {
		if sys != nil {
			if _, err := sys.close(); err != nil {
				return nil, err
			}
			// Start each set-up from the same heap: only one copy of the
			// inputs is live at a time.
			fx, sys = nil, nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if fx, err = w.prepare(cfg); err != nil {
			return nil, err
		}
		if sys, err = fx.start(nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, fx.genS)
	}
	want, err := fx.oracle()
	if err != nil {
		_, _ = sys.close()
		return nil, err
	}
	// Return the oracle's heap to the system and restart the peak
	// resident set, so peak_rss_mb covers the timed phase: the started
	// system, its inputs and one pass's samples.
	debug.FreeOSMemory()
	rssNote := "peak_rss_mb: peak resident set of the timed phase"
	if err := resetPeakRSS(); err != nil {
		rssNote = fmt.Sprintf("peak_rss_mb: process lifetime peak, set-up and oracle included (%v)", err)
	}
	ph, err := timed(fx, sys, cfg.seconds, nil, want)
	if err != nil {
		return nil, err
	}
	peakRSS := peakRSSMB()
	rep := &report{
		attempted:    ph.rec.attempted,
		failed:       ph.rec.failed,
		mismatch:     ph.mismatch,
		streamEvents: fx.stream.Len(),
		passes:       len(ph.rates),
		samples:      ph.samples,
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("untraced: %d passes, %d events, failed_frac %.6g, pass rates %.0f ev/s",
			len(ph.rates), ph.rec.attempted, float64(ph.rec.failed)/float64(ph.rec.attempted), ph.rates),
		fmt.Sprintf("decision latency, median over passes of each pass's quantile over all its samples (%d in total): p50 %.4g ms, p99 %.4g ms, p99.9 %.4g ms; generator late p99 %.4g ms",
			ph.samples, ph.latencyMs(0.50), ph.latencyMs(0.99), ph.latencyMs(0.999), quantile(ph.rec.late, 0.99)),
		fmt.Sprintf("setup reps %.3f s; gc cycles %d; live heap %.1f MB",
			setups, ph.rt1.gcCycles-ph.rt0.gcCycles, float64(ph.rt1.liveHeap)/(1<<20)),
		rssNote)
	for _, f := range ph.rec.failures {
		rep.notes = append(rep.notes, "failed line: "+f)
	}
	if !cfg.trace {
		values := map[string]float64{
			"events_per_s":    ph.eventsPerS(),
			"decision_p75_ms": ph.latencyMs(0.75),
			"decision_p90_ms": ph.latencyMs(0.90),
			"revenue":         totalRevenue(want),
			"setup_s":         median(setups),
			"peak_rss_mb":     peakRSS,
		}
		rep.metrics = make(map[string]metric, len(endToEnd))
		for _, u := range endToEnd {
			rep.metrics[u.name] = metric{values[u.name], u.unit}
		}
		return rep, nil
	}

	runtime.GC()
	inst := &instruments{}
	tr, err := timed(fx, nil, 0, inst, want)
	if err != nil {
		return nil, err
	}
	if tr.mismatch != "" && rep.mismatch == "" {
		rep.mismatch = "traced " + tr.mismatch
	}
	rep.attempted += tr.rec.attempted
	rep.failed += tr.rec.failed
	rep.metrics = perLayer(fx, ph, tr, inst, median(gens))
	return rep, nil
}
