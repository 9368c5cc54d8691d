package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"crossmatch"
	"crossmatch/internal/core"
	"crossmatch/internal/index"
	"crossmatch/internal/metrics"
	"crossmatch/internal/route"
	"crossmatch/internal/serve"
	"crossmatch/internal/trace"
)

// system is one started engine or server fleet, good for one pass.
type system interface {
	// run offers every event of the pass and records each outcome.
	run(rec *recorder) error
	// close stops the system and returns one Result per engine.
	close() ([]*crossmatch.SimResult, error)
}

func (fx *fixture) start(inst *instruments) (system, error) {
	if fx.http {
		fs, err := startFleet(fx, inst)
		if err != nil {
			return nil, err
		}
		return fs, nil
	}
	es, err := startEngine(fx, inst)
	if err != nil {
		return nil, err
	}
	return es, nil
}

// instruments are the program's own counters and tracers, attached to
// the traced pass and read once it ends. Nil on untraced passes.
type instruments struct {
	collectors []*metrics.Collector
	tracers    []*trace.Tracer
	busy       time.Duration // summed Process time (in-process engines)
	shardStats []metrics.ShardSnapshot
	servers    []serve.MetricsSnapshot
	router     *route.Snapshot
	queueMax   int
	walBytes   int64
}

func (in *instruments) collector() *metrics.Collector {
	c := metrics.New()
	in.collectors = append(in.collectors, c)
	return c
}

// tracer returns a tracer whose rings hold every request of s, so no
// span is evicted and stage sums cover the whole pass.
func (in *instruments) tracer(s *core.Stream) *trace.Tracer {
	t := trace.New(trace.Options{Capacity: max(1, len(s.Requests()))})
	in.tracers = append(in.tracers, t)
	return t
}

// engineSystem drives one MatchEngine in a closed loop.
type engineSystem struct {
	eng    *crossmatch.MatchEngine
	events []core.Event
	inst   *instruments
	res    *crossmatch.SimResult
}

func startEngine(fx *fixture, inst *instruments) (*engineSystem, error) {
	opts := []crossmatch.Option{crossmatch.WithSeed(fx.seed)}
	if fx.shards > 1 {
		opts = append(opts, crossmatch.WithShards(fx.shards), crossmatch.WithShardReach(fx.reach))
	}
	if inst != nil {
		opts = append(opts, crossmatch.WithMetrics(inst.collector()))
		if fx.shards <= 1 { // the sharded runtime rejects tracing
			opts = append(opts, crossmatch.WithTracer(inst.tracer(fx.stream)))
		}
	}
	eng, err := crossmatch.NewEngine(fx.stream.Platforms(), fx.alg, fx.stream.MaxValue(), opts...)
	if err != nil {
		return nil, err
	}
	return &engineSystem{eng: eng, events: fx.stream.Events(), inst: inst}, nil
}

func (s *engineSystem) run(rec *recorder) error {
	var busy time.Duration
	for _, ev := range s.events {
		t0 := time.Now()
		_, err := s.eng.Process(ev)
		d := time.Since(t0)
		busy += d
		rec.attempted++
		if err != nil {
			rec.failed++
			return fmt.Errorf("Process: %w", err)
		}
		if ev.Kind == core.RequestArrival {
			rec.samples = append(rec.samples, ms(d))
		}
	}
	// Finish drains the shard queues, so it belongs to the pass.
	t0 := time.Now()
	res, err := s.eng.Finish()
	busy += time.Since(t0)
	if err != nil {
		return fmt.Errorf("Finish: %w", err)
	}
	s.res = res
	if s.inst != nil {
		s.inst.busy += busy
		s.inst.shardStats = s.eng.ShardStats()
	}
	return nil
}

func (s *engineSystem) close() ([]*crossmatch.SimResult, error) {
	if s.res == nil {
		// A failed or discarded pass: stop the engine's goroutines.
		_, err := s.eng.Finish()
		return nil, err
	}
	return []*crossmatch.SimResult{s.res}, nil
}

// fleetSystem is one replay-mode server per part, on loopback
// listeners, behind a router when the plan names shards.
type fleetSystem struct {
	fx       *fixture
	inst     *instruments
	servers  []*serve.Server
	listen   []*httptest.Server
	router   *route.Router
	front    *httptest.Server
	url      string // where the load goes: the router, else the one server
	client   *http.Client
	walDir   string
	stopPoll chan struct{}
	polled   sync.WaitGroup
}

func startFleet(fx *fixture, inst *instruments) (_ *fleetSystem, err error) {
	fs := &fleetSystem{fx: fx, inst: inst, client: newClient(fx.plan.conns)}
	defer func() {
		if err != nil {
			_, _ = fs.close()
		}
	}()
	if fx.plan.durable {
		if err := os.MkdirAll(fx.workDir, 0o755); err != nil {
			return nil, err
		}
		if fs.walDir, err = os.MkdirTemp(fx.workDir, "wal-"); err != nil {
			return nil, err
		}
	}
	var urls []route.ShardConfig
	for i, part := range fx.parts {
		opts := serve.Options{Algorithm: fx.alg, Seed: fx.seed, Replay: part}
		if fs.walDir != "" {
			opts.WALDir, opts.FsyncBatch = filepath.Join(fs.walDir, fx.names[i]), 64
		}
		if inst != nil {
			opts.Metrics, opts.Tracer = inst.collector(), inst.tracer(part)
		}
		srv, err := serve.New(opts)
		if err != nil {
			return nil, fmt.Errorf("starting %s: %w", fx.names[i], err)
		}
		fs.servers = append(fs.servers, srv)
		ts := httptest.NewServer(srv.Handler())
		fs.listen = append(fs.listen, ts)
		urls = append(urls, route.ShardConfig{Name: fx.names[i], URL: ts.URL})
	}
	fs.url = fs.listen[0].URL
	if fx.plan.shards != nil {
		if fs.router, err = route.New(route.Options{Shards: urls, CellSize: index.DefaultCell}); err != nil {
			return nil, fmt.Errorf("starting router: %w", err)
		}
		fs.front = httptest.NewServer(fs.router.Handler())
		fs.url = fs.front.URL
		for deadline := time.Now().Add(10 * time.Second); fs.router.Snapshot().ReadyShards < len(urls); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("router: shards not ready after 10s")
			}
		}
	}
	if inst != nil {
		fs.stopPoll = make(chan struct{})
		fs.polled.Add(1)
		go fs.pollQueues()
	}
	return fs, nil
}

// pollQueues samples every server's ingest queue depth until the pass
// ends; Snapshot is the only place the depth is exported.
func (fs *fleetSystem) pollQueues() {
	defer fs.polled.Done()
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		for _, srv := range fs.servers {
			fs.inst.queueMax = max(fs.inst.queueMax, srv.Snapshot().Server.QueueLen)
		}
		select {
		case <-fs.stopPoll:
			return
		case <-t.C:
		}
	}
}

func (fs *fleetSystem) run(rec *recorder) error {
	return drive(fs.client, fs.url, fs.fx.calls, fs.fx.plan.conns, fs.fx.plan.interval, rec)
}

func (fs *fleetSystem) close() ([]*crossmatch.SimResult, error) {
	if fs.stopPoll != nil {
		close(fs.stopPoll)
		fs.polled.Wait()
	}
	if fs.router != nil {
		if fs.inst != nil {
			snap := fs.router.Snapshot()
			fs.inst.router = &snap
		}
		fs.front.Close()
		fs.router.Close()
	}
	fs.client.CloseIdleConnections()
	var results []*crossmatch.SimResult
	var firstErr error
	for i, srv := range fs.servers {
		fs.listen[i].Close()
		if fs.inst != nil {
			fs.inst.servers = append(fs.inst.servers, srv.Snapshot())
		}
		res, err := srv.Close()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("closing %s: %w", fs.fx.names[i], err)
		}
		results = append(results, res)
	}
	if fs.walDir != "" {
		if fs.inst != nil {
			fs.inst.walBytes += segmentBytes(fs.walDir)
		}
		if err := os.RemoveAll(fs.walDir); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return results, firstErr
}

// segmentBytes sums the sizes of the WAL segment files under dir.
func segmentBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".seg") {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
