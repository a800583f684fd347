package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"stamp/internal/atlas"
	"stamp/internal/obs"
	"stamp/internal/runner"
	"stamp/internal/scenario"
	"stamp/internal/serve"
	"stamp/internal/topology"
	"stamp/internal/trace"
)

const (
	// serveSetups is how many times a serve run sets up; setup_s is the
	// median.
	serveSetups = 31
	// readPace is the serve-read-10k writer's interval (20 events/s, as
	// Server.Run paces a replay).
	readPace = 50 * time.Millisecond
	// serveWorkers sizes the service's per-event shard pool. One settle
	// worker leaves the second CPU to the HTTP handlers and the SSE
	// stream, so an epoch's frame does not queue behind the next
	// event's settle, and no event waits at a fan-out barrier for a
	// worker whose vCPU the host has descheduled.
	serveWorkers = 1
	// readConns is the serve-read-10k closed-loop connection count.
	readConns = 2
	// scrapeEvery is how often connection 0 scrapes /metrics.
	scrapeEvery = time.Second
	// harvestEvery is how often the traced serve-churn-10k run collects
	// the service's own spans from the flight recorder.
	harvestEvery = time.Second
	// serveTraceBudget bounds the benchmark's traced operations per
	// tracer shard (events on the writer and SSE shards, reads on each
	// connection's shard), and readTraceEvery thins traced reads.
	serveTraceBudget = 8192
	readTraceEvery   = 16
	// probeNeighbors and probeRandom size the post-run point-read probes
	// per destination: the destination's neighbours (whose routes the
	// events touch most) plus random ASes.
	probeNeighbors = 32
	probeRandom    = 32
)

// Tracer shards of the serve workloads' own spans.
const (
	shardWriter = iota
	shardSSE
	shardConn0
)

// serveSetup is one ingested, converged, listening service.
type serveSetup struct {
	g      *atlas.Graph
	srv    *serve.Server
	base   string
	events []scenario.Event
	ingest time.Duration
}

func setupServe(cfg runConfig, in *inputs, readSLO time.Duration) (*serveSetup, error) {
	ss := &serveSetup{}
	t0 := time.Now()
	g, err := atlas.IngestFile(in.ASRel)
	if err != nil {
		return nil, err
	}
	ss.ingest = time.Since(t0)
	ss.g = g
	if ss.events, err = denseEvents(g, in.Events); err != nil {
		return nil, err
	}
	ss.srv, err = serve.New(serve.Config{
		Graph: g, Scenario: scenario.FlapStorm, Dests: dests, Seed: cfg.seed,
		Workers: serveWorkers, Repeat: 0, ReadSLO: readSLO,
	})
	if err != nil {
		return nil, err
	}
	addr, err := ss.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ss.base = "http://" + addr
	return ss, nil
}

func (ss *serveSetup) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// The run's results are already taken; a drain that times out only
	// delays the process's exit.
	_ = ss.srv.Shutdown(ctx)
}

// serveRun is the state shared by both serve workloads.
type serveRun struct {
	cfg      runConfig
	in       *inputs
	ss       *serveSetup
	res      *result
	setups   []float64
	setupCPU []float64
	ingests  []float64
	// destASNs is the server's destination index (GET /state), the
	// slots the read subjects name.
	destASNs []int64
	client   *http.Client
	tr       *trace.Tracer
}

// startServe sets the service up serveSetups times, keeps the last
// one, and reads its destination index.
func startServe(cfg runConfig, readSLO time.Duration) (*serveRun, error) {
	in, err := loadInputs(cfg.dir, cfg.n, cfg.seed)
	if err != nil {
		return nil, err
	}
	r := &serveRun{cfg: cfg, in: in, res: &result{}, client: newClient(30 * time.Second)}
	for i := 0; i < serveSetups; i++ {
		if r.ss != nil {
			r.ss.close()
			r.ss = nil
		}
		runtime.GC()
		c0 := cpuTime()
		t0 := time.Now()
		ss, err := setupServe(cfg, in, readSLO)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		r.setupCPU = append(r.setupCPU, (cpuTime() - c0).Seconds())
		r.ingests = append(r.ingests, ss.ingest.Seconds())
		r.ss = ss
	}
	var idx serve.StateIndex
	if err := r.getJSON("/state", &idx); err != nil {
		r.ss.close()
		return nil, err
	}
	if len(idx.Dests) != dests {
		r.ss.close()
		return nil, fmt.Errorf("server serves %d destinations, want %d", len(idx.Dests), dests)
	}
	r.destASNs = idx.Dests
	if cfg.traced {
		r.tr = trace.New(trace.Options{Shards: shardConn0 + readConns, BufferPerShard: 2 * serveTraceBudget})
	}
	return r, nil
}

func newClient(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		},
	}
}

// get fetches url and returns the body of a 200 response.
func get(c *http.Client, url string) ([]byte, error) {
	var buf bytes.Buffer
	return getInto(c, url, &buf)
}

// getInto is get reading the body into buf; the returned bytes alias
// buf until its next use.
func getInto(c *http.Client, url string, buf *bytes.Buffer) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(buf.Bytes()))
	}
	return buf.Bytes(), nil
}

func (r *serveRun) getJSON(path string, v any) error {
	body, err := get(r.client, r.ss.base+path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

func (r *serveRun) scrape() (*obs.Scrape, error) {
	body, err := get(r.client, r.ss.base+"/metrics")
	if err != nil {
		return nil, err
	}
	return obs.ParseText(bytes.NewReader(body))
}

// delta is a /metrics series' change over the timed window.
func delta(before, after *obs.Scrape, name string) float64 {
	a, _ := after.Value(name)
	b, _ := before.Value(name)
	return a - b
}

// setLayerDeltas reports the per-layer metrics both serve workloads
// take from /metrics deltas. events is the number of events applied.
func (r *serveRun) setLayerDeltas(before, after *obs.Scrape, events int) {
	res, ev := r.res, float64(events)
	d := func(name string) float64 { return delta(before, after, name) }
	res.set("serve.handler_apply_ms_mean", 1e3*ratio(d("stamp_serve_apply_seconds_sum"), d("stamp_serve_apply_seconds_count")), "ms")
	res.set("serve.snapshot_fallbacks", d("stamp_serve_snapshot_fallbacks_total"), "count")
	res.set("runner.trials_per_event", ratio(d("stamp_runner_trials_started_total"), ev), "count")
	res.set("prov.appends_per_event", ratio(d("stamp_prov_appends_total"), ev), "count")
	res.set("prov.evictions", d("stamp_prov_evictions_total"), "count")
	res.set("atlas.changed_per_event", ratio(d("stamp_atlas_route_changes_total"), d("stamp_atlas_events_total")), "count")
	res.set("atlas.rounds_per_event", ratio(d("stamp_atlas_event_rounds_sum"), d("stamp_atlas_event_rounds_count")), "count")
	res.set("atlas.frontier_per_event", ratio(d("stamp_atlas_event_frontier_sum"), d("stamp_atlas_event_frontier_count")), "count")
}

// setCommon reports what every serve run measures the same way.
func (r *serveRun) setCommon() {
	r.res.named("setup_cpu_s", quantile(r.setupCPU, 0.5), "s")
	r.res.named("setup_wall_s", quantile(r.setups, 0.5), "s")
	if !r.cfg.traced {
		r.res.set("setup_s", quantile(r.setupCPU, 0.5), "s")
		return
	}
	r.res.set("atlas.ingest_s", quantile(r.ingests, 0.5), "s")
	// InitDest runs inside serve.New; time the same call on the same
	// graph and destinations from outside.
	eng := atlas.NewEngine(r.ss.g, atlas.DefaultParams())
	st := eng.NewState()
	var inits samples
	for _, asn := range r.destASNs {
		dest, _ := r.ss.g.DenseASN(asn)
		t := time.Now()
		if err := eng.InitDest(st, dest); err != nil {
			r.res.fail("InitDest at dest %d: %v", asn, err)
			continue
		}
		inits.add(time.Since(t))
	}
	r.res.set("atlas.init_dest_ms_p50", inits.quantileMs(0.5), "ms")
}

// setHeapLive reports the live heap while the service still holds its
// state. Callers drop their per-operation samples first, so the figure
// does not grow with the number of operations a run completed.
func (r *serveRun) setHeapLive() {
	r.res.set("heap_live_mb", heapLiveMB(), "MB")
	runtime.KeepAlive(r.ss.srv)
}

// probe checks, after the timed window, sampled point reads of every
// destination against a from-scratch convergence over the applied
// events. In a traced run it also times State.SnapshotRoutes on the
// reference states.
func (r *serveRun) probe(applied int) {
	g, res := r.ss.g, r.res
	eng := atlas.NewEngine(g, atlas.DefaultParams())
	st := eng.NewState()
	evs := cycled(r.ss.events, applied)
	n := g.Len()
	var kind [atlas.PlaneCount][]int8
	var dist, next [atlas.PlaneCount][]int32
	for p := range kind {
		kind[p], dist[p], next[p] = make([]int8, n), make([]int32, n), make([]int32, n)
	}
	var scratchTimes, snapTimes samples
	rng := rand.New(rand.NewSource(runner.DeriveSeed(r.cfg.seed, streamSubjects+1)))
	epoch := r.ss.srv.Epoch()
	for _, asn := range r.destASNs {
		dest, _ := g.DenseASN(asn)
		t := time.Now()
		err := eng.ConvergeScratch(st, dest, evs)
		scratchTimes.add(time.Since(t))
		if err != nil {
			res.fail("ConvergeScratch at dest %d: %v", asn, err)
			continue
		}
		reps := 1
		if r.cfg.traced {
			reps = snapshotReps
		}
		for i := 0; i < reps; i++ {
			t := time.Now()
			for p := 0; p < atlas.PlaneCount; p++ {
				st.SnapshotRoutes(p, kind[p], dist[p], next[p])
			}
			snapTimes.add(time.Since(t))
		}
		subjects := g.Neighbors(nil, dest)
		if len(subjects) > probeNeighbors {
			subjects = subjects[:probeNeighbors]
		}
		for i := 0; i < probeRandom; i++ {
			subjects = append(subjects, topology.ASN(rng.Intn(n)))
		}
		for _, a := range subjects {
			var got serve.StateRead
			err := r.getJSON(fmt.Sprintf("/state/%d?as=%d", asn, g.OriginalASN(a)), &got)
			res.check(err == nil && routesEqual(g, got, epoch, a, &kind, &dist, &next),
				"point read (dest %d, AS %d) differs from ConvergeScratch: %+v (err %v)", asn, g.OriginalASN(a), got, err)
		}
	}
	if r.cfg.traced {
		res.set("atlas.converge_scratch_ms_p50", scratchTimes.quantileMs(0.5), "ms")
		res.set("atlas.snapshot_routes_ms_p50", snapTimes.quantileMs(0.5), "ms")
	}
}

func routesEqual(g *atlas.Graph, got serve.StateRead, epoch uint64, a topology.ASN,
	kind *[atlas.PlaneCount][]int8, dist, next *[atlas.PlaneCount][]int32) bool {
	if got.Epoch != epoch || len(got.Planes) != atlas.PlaneCount {
		return false
	}
	for p, pr := range got.Planes {
		want := int64(0)
		if nx := next[p][a]; nx >= 0 {
			want = g.OriginalASN(topology.ASN(nx))
		}
		if pr.Kind != atlas.KindName(kind[p][a]) || pr.Dist != dist[p][a] || pr.Next != want {
			return false
		}
	}
	return true
}

// plant fails, through the service, a link the reference never sees.
func (r *serveRun) plant() error {
	dest, _ := r.ss.g.DenseASN(r.destASNs[0])
	ev, err := plantLink(r.ss.g, dest, r.ss.events)
	if err != nil {
		return err
	}
	_, err = r.ss.srv.ApplyEvent(ev)
	return err
}

// finishTrace validates and exports the benchmark's own spans.
func (r *serveRun) finishTrace(res *result) {
	dropped := r.tr.Dropped()
	res.set("trace.dropped", float64(dropped), "count")
	res.check(dropped == 0, "trace rings dropped %d spans", dropped)
	if err := exportChrome(r.cfg, r.tr, map[string]any{
		"workload": r.cfg.workload, "seed": r.cfg.seed, "ases": r.ss.g.Len(),
	}); err != nil {
		res.fail("export trace: %v", err)
	}
}
