package main

import (
	"fmt"
	"math"
	"time"

	"crossmatch"
	"crossmatch/internal/core"
	"crossmatch/internal/index"
	"crossmatch/internal/route"
	wl "crossmatch/internal/workload"
)

// workload is one named input set and the path it drives.
type workload struct {
	name, why string
	prepare   func(cfg config) (*fixture, error)
}

// workloads are chosen so that each puts most of its time in a
// different layer: a later change shows its gain on the workload that
// runs its layer and no change on the others.
var workloads = []*workload{
	{
		name: "city-demcom",
		why:  "few workers per request, so DemCOM prices many cooperative requests: pricing dominates; in-process, no HTTP, no WAL",
		prepare: func(cfg config) (*fixture, error) {
			// A pass offers the first 40,000 of the city's 81,333 events,
			// so a run holds several passes to take the median of.
			return inProcess(cfg, crossmatch.DemCOM, 1, scaled(40_000, cfg.scale), func() (*core.Stream, error) {
				return crossmatch.GenerateCity("RDC11+RYC11", 0.2*cfg.scale, cfg.seed)
			})
		},
	},
	{
		name: "uniform-2shard",
		why:  "fixed-density uniform city under RamCOM on 2 in-process shards: index lookup, eligibility and cross-shard claims dominate",
		prepare: func(cfg config) (*fixture, error) {
			return inProcess(cfg, crossmatch.RamCOM, 2, 0, func() (*core.Stream, error) {
				return wl.Generate(uniformCity(scaled(30_000, cfg.scale)), cfg.seed)
			})
		},
	},
	{
		name: "replay-http",
		why:  "closed-loop NDJSON replay into one server over loopback HTTP, 2 connections: serve ingest (decode, encode) dominates the engine",
		prepare: func(cfg config) (*fixture, error) {
			// The serve stream of the ROADMAP (40k requests, 30k workers);
			// a pass offers its first quarter so a run holds several passes.
			plan := httpPlan{conns: 2, batch: 128, prefix: scaled(40_000, cfg.scale)}
			return overHTTP(cfg, plan, func() (*core.Stream, error) {
				return crossmatch.GenerateSynthetic(scaled(40_000, cfg.scale), scaled(30_000, cfg.scale), 1.0, "real", cfg.seed)
			})
		},
	},
	{
		name: "fleet-paced",
		why:  "open loop at 1,000 ev/s, one event per POST, via the router to 2 WAL-backed shards: router hop, WAL fsync and engine per event",
		prepare: func(cfg config) (*fixture, error) {
			// 1,000 ev/s leaves the 2 sending connections half idle: the
			// runtime's millisecond timer wake-ups already make each send
			// ~0.45 ms late, and at 2,000 ev/s that lateness alone kept
			// both connections near saturation, so the tail measured the
			// load generator. A pass is the first 5,000 events (5 s).
			plan := httpPlan{conns: 2, batch: 1, interval: time.Second / 1000, shards: []string{"shard-a", "shard-b"}, durable: true,
				prefix: scaled(5_000, cfg.scale)}
			return overHTTP(cfg, plan, func() (*core.Stream, error) {
				return crossmatch.GenerateSynthetic(scaled(10_000, cfg.scale), scaled(7_500, cfg.scale), 1.0, "real", cfg.seed)
			})
		},
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func scaled(n int, scale float64) int { return max(1, int(float64(n)*scale)) }

// uniformCity is the fixed-density city of the geo-shard scaling sweep:
// 50 workers per km², 9 requests per worker, 1 km service radius,
// workers and requests uniform over one square shared by two platforms.
func uniformCity(workers int) wl.Config {
	const density, perWorker, radius = 50.0, 9, 1.0
	side := max(math.Sqrt(float64(workers)/density), 2*radius)
	sq := wl.NewUniformSquare(side)
	spec := func(id, w, r int) wl.PlatformSpec {
		return wl.PlatformSpec{ID: core.PlatformID(id), Workers: w, Requests: r, Radius: radius,
			RequestSpatial: sq, Values: wl.DefaultRealValues()}
	}
	requests := workers * perWorker
	return wl.Config{Platforms: []wl.PlatformSpec{
		spec(1, workers/2, requests/2),
		spec(2, workers-workers/2, requests-requests/2),
	}}
}

// fixture is a workload's prepared inputs: what one set-up builds and
// every pass re-uses.
type fixture struct {
	alg    string
	seed   int64
	stream *core.Stream // the events one pass offers, in order
	genS   float64      // time spent generating the stream

	// In-process workloads: the engine's shard count and reach.
	shards int
	reach  float64

	// HTTP workloads: one server per part (one part without a router),
	// the pre-encoded calls and how they are sent.
	http    bool
	plan    httpPlan
	names   []string
	parts   []*core.Stream
	calls   []call
	workDir string
}

// httpPlan is how an HTTP workload is served and loaded.
type httpPlan struct {
	conns    int
	batch    int           // max events per call
	interval time.Duration // open-loop spacing of calls; 0 = closed loop
	shards   []string      // router-fronted shard names; nil = one server, no router
	durable  bool          // WAL per server
	prefix   int           // offer only the stream's first events; 0 = all
}

// generate builds a workload's stream and cuts it to its first prefix
// events (0 keeps all), timing both.
func generate(prefix int, gen func() (*core.Stream, error)) (*core.Stream, float64, error) {
	t0 := time.Now()
	s, err := gen()
	if err != nil {
		return nil, 0, fmt.Errorf("generating stream: %w", err)
	}
	if prefix > 0 && prefix < s.Len() {
		if s, err = core.NewStream(s.Events()[:prefix]); err != nil {
			return nil, 0, fmt.Errorf("cutting stream: %w", err)
		}
	}
	return s, time.Since(t0).Seconds(), nil
}

func inProcess(cfg config, alg string, shards, prefix int, gen func() (*core.Stream, error)) (*fixture, error) {
	s, genS, err := generate(prefix, gen)
	if err != nil {
		return nil, err
	}
	fx := &fixture{alg: alg, seed: cfg.seed, stream: s, genS: genS, shards: shards}
	if shards > 1 {
		// The largest radius bounds every claim; it is what a stream run
		// derives on its own, so the engine matches the offline run.
		for _, w := range s.Workers() {
			fx.reach = max(fx.reach, w.Radius)
		}
	}
	return fx, nil
}

func overHTTP(cfg config, plan httpPlan, gen func() (*core.Stream, error)) (*fixture, error) {
	s, genS, err := generate(plan.prefix, gen)
	if err != nil {
		return nil, err
	}
	fx := &fixture{alg: crossmatch.DemCOM, seed: cfg.seed, http: true, plan: plan, workDir: cfg.workDir,
		stream: s, genS: genS}
	fx.names, fx.parts = []string{"server"}, []*core.Stream{s}
	if plan.shards != nil {
		split, err := route.SplitStream(s, plan.shards, index.DefaultCell)
		if err != nil {
			return nil, fmt.Errorf("splitting stream: %w", err)
		}
		fx.names, fx.parts = plan.shards, nil
		for _, name := range plan.shards {
			fx.parts = append(fx.parts, split[name])
		}
	}
	if fx.calls, err = encodeCalls(s.Events(), plan.batch); err != nil {
		return nil, err
	}
	return fx, nil
}
