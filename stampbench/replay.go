package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"stamp/internal/atlas"
	"stamp/internal/obs"
	"stamp/internal/runner"
	"stamp/internal/scenario"
	"stamp/internal/topology"
	"stamp/internal/trace"
)

const (
	// dests is the destination-shard count of every workload.
	dests = 8
	// replaySetups is how many times a replay run sets up; setup_s is
	// the median.
	replaySetups = 9
	// replayTraceBudget bounds the traced (dest, event) pairs per
	// worker, and with it the span rings: every traced pair records the
	// benchmark's span, atlas.apply_event, up to three atlas.cascade and
	// three atlas.plane_* spans.
	replayTraceBudget = 2048
	spansPerDestEvent = 8
	// snapshotReps is how often the traced run copies each live state's
	// three planes out with State.SnapshotRoutes.
	snapshotReps = 16
)

// replaySetup is one ingested, converged batch path ready for events.
type replaySetup struct {
	g      *atlas.Graph
	eng    *atlas.Engine
	dests  []topology.ASN
	events []scenario.Event
	states []*atlas.State
	ingest time.Duration
	inits  samples
}

// setupReplay ingests the snapshot, draws the destinations and
// converges one state per destination on up to maxProcs goroutines.
func setupReplay(cfg runConfig, in *inputs) (*replaySetup, error) {
	rs := &replaySetup{}
	t0 := time.Now()
	g, err := atlas.IngestFile(in.ASRel)
	if err != nil {
		return nil, err
	}
	rs.ingest = time.Since(t0)
	rs.g = g
	if rs.dests, err = atlas.Destinations(g, dests, runner.DeriveSeed(cfg.seed, streamDests)); err != nil {
		return nil, err
	}
	if rs.events, err = denseEvents(g, in.Events); err != nil {
		return nil, err
	}
	rs.eng = atlas.NewEngine(g, atlas.DefaultParams())
	rs.states = make([]*atlas.State, len(rs.dests))
	workers := runtime.GOMAXPROCS(0)
	times := make([]samples, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(rs.dests); i += workers {
				st := rs.eng.NewState()
				st.SetTraceShard(w)
				t := time.Now()
				if err := rs.eng.InitDest(st, rs.dests[i]); err != nil {
					errs[w] = err
					return
				}
				times[w].add(time.Since(t))
				rs.states[i] = st
			}
		}()
	}
	wg.Wait()
	for w := range errs {
		if errs[w] != nil {
			return nil, errs[w]
		}
		rs.inits = append(rs.inits, times[w]...)
	}
	return rs, nil
}

// replayWorker is one goroutine's share of the destinations and what
// it measured.
type replayWorker struct {
	id        int
	states    []*atlas.State
	dead      []bool
	applied   int // events applied to every live state of this worker
	times     samples
	traced    samples // traced calls, while the trace budget lasts
	untraced  samples // untraced calls interleaved with the traced ones
	nTraced   int
	attempted int64
	failed    int64
	firstErr  error
	changed   int64
	rounds    int64
}

// run applies the script, cycled, event by event to each of the
// worker's destinations until the deadline. In a traced run every other
// event is traced (parented under a benchmark span via State.SetTrace)
// until the budget is spent, so traced and untraced calls interleave.
// Which half is traced alternates from one cycle of the script to the
// next, so every event of the script is sampled both ways.
func (w *replayWorker) run(eng *atlas.Engine, events []scenario.Event, deadline time.Time, tr *trace.Tracer) {
	for k := 0; time.Now().Before(deadline); k++ {
		ev := events[k%len(events)]
		tracing := tr != nil && w.nTraced < replayTraceBudget
		traceThis := tracing && (k%len(events)+k/len(events))%2 == 0
		for i, st := range w.states {
			if w.dead[i] {
				continue
			}
			var root trace.Span
			if traceThis {
				tc := tr.Event(w.id)
				root = tc.Start("bench.dest_event")
				st.SetTrace(tc, root.ID())
			}
			t := time.Now()
			cost, err := eng.ApplyEvent(st, ev)
			d := time.Since(t)
			if traceThis {
				st.ClearTrace()
				root.End()
				w.nTraced++
			}
			w.attempted++
			if err != nil {
				w.failed++
				w.dead[i] = true
				if w.firstErr == nil {
					w.firstErr = fmt.Errorf("dest %d event %d (%v): %w", st.Dest(), k, ev, err)
				}
				continue
			}
			w.times.add(d)
			switch {
			case traceThis:
				w.traced.add(d)
			case tracing:
				w.untraced.add(d)
			}
			w.changed += cost.Changed
			w.rounds += int64(cost.Rounds())
		}
		w.applied = k + 1
	}
}

// runReplay is replay-storm-50k: the batch path at internet scale.
func runReplay(cfg runConfig) (*result, error) {
	in, err := loadInputs(cfg.dir, cfg.n, cfg.seed)
	if err != nil {
		return nil, err
	}
	res := &result{}
	var setups, setupCPU, ingests []float64
	var inits samples
	var rs *replaySetup
	for i := 0; i < replaySetups; i++ {
		rs = nil
		runtime.GC()
		c0 := cpuTime()
		t0 := time.Now()
		if rs, err = setupReplay(cfg, in); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupCPU = append(setupCPU, (cpuTime() - c0).Seconds())
		ingests = append(ingests, rs.ingest.Seconds())
		inits = append(inits, rs.inits...)
	}

	var tr *trace.Tracer
	var m *atlas.Metrics
	nw := runtime.GOMAXPROCS(0)
	if cfg.traced {
		tr = trace.New(trace.Options{Shards: nw, BufferPerShard: replayTraceBudget * spansPerDestEvent})
		m = atlas.NewMetrics(obs.NewRegistry())
		rs.eng.Instrument(m)
	}
	workers := make([]*replayWorker, nw)
	for w := range workers {
		rw := &replayWorker{id: w}
		for i := w; i < len(rs.states); i += nw {
			rw.states = append(rw.states, rs.states[i])
		}
		rw.dead = make([]bool, len(rw.states))
		rw.times = make(samples, 0, int(cfg.window.Seconds())*2000)
		workers[w] = rw
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(cfg.window)
	var wg sync.WaitGroup
	for _, rw := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rw.run(rs.eng, rs.events, deadline, tr)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)

	var all, traced, untraced samples
	var changed, rounds int64
	for _, rw := range workers {
		all = append(all, rw.times...)
		traced = append(traced, rw.traced...)
		untraced = append(untraced, rw.untraced...)
		changed += rw.changed
		rounds += rw.rounds
		res.ops(rw.attempted, rw.failed, "ApplyEvent calls failed")
		if rw.firstErr != nil {
			fmt.Fprintf(cfg.log, "stampbench: %v\n", rw.firstErr)
		}
	}

	if cfg.plant {
		st := rs.states[0]
		ev, err := plantLink(rs.g, st.Dest(), rs.events)
		if err != nil {
			return nil, err
		}
		if _, err := rs.eng.ApplyEvent(st, ev); err != nil {
			return nil, err
		}
	}

	// Correctness: every live state equals a from-scratch convergence
	// over the events it applied.
	var scratchTimes samples
	scratch := rs.eng.NewState()
	for _, rw := range workers {
		applied := cycled(rs.events, rw.applied)
		for i, st := range rw.states {
			if rw.dead[i] {
				continue
			}
			t := time.Now()
			err := rs.eng.ConvergeScratch(scratch, st.Dest(), applied)
			scratchTimes.add(time.Since(t))
			if err != nil {
				res.fail("ConvergeScratch at dest %d: %v", st.Dest(), err)
				continue
			}
			diffs := atlas.DiffStates(st, scratch)
			res.check(len(diffs) == 0, "dest %d: live state differs from ConvergeScratch at %d (plane, AS) routes", st.Dest(), len(diffs))
		}
	}

	destEvents := float64(len(all))
	res.named("setup_cpu_s", quantile(setupCPU, 0.5), "s")
	res.named("setup_wall_s", quantile(setups, 0.5), "s")
	res.named("replay_dest_events_per_s", destEvents/elapsed.Seconds(), "1/s")
	res.named("replay_dest_event_ms_p50", all.quantileMs(0.5), "ms")
	res.named("replay_dest_event_ms_p99", all.quantileMs(0.99), "ms")
	res.named("replay_dest_event_cpu_ms", ratio(cpu.Seconds()*1e3, destEvents), "ms")
	res.named("replay_dest_events", destEvents, "count")
	if !cfg.traced {
		res.set("setup_s", quantile(setupCPU, 0.5), "s")
		res.set("cpu_ms_per_op", ratio(cpu.Seconds()*1e3, destEvents), "ms")
		// Weigh the heap with the destination states still held and the
		// per-event samples dropped.
		workers, all = nil, nil
		res.set("heap_live_mb", heapLiveMB(), "MB")
		runtime.KeepAlive(rs)
		return res, nil
	}

	res.set("atlas.ingest_s", quantile(ingests, 0.5), "s")
	res.set("atlas.init_dest_ms_p50", inits.quantileMs(0.5), "ms")
	res.set("atlas.apply_event_ms_p50", all.quantileMs(0.5), "ms")
	res.set("atlas.apply_event_ms_p99", all.quantileMs(0.99), "ms")
	res.set("atlas.us_per_changed_route", ratio(all.sumMs()*1e3, float64(changed)), "us")
	res.set("atlas.changed_per_event", ratio(float64(changed), destEvents), "count")
	res.set("atlas.rounds_per_event", ratio(float64(rounds), destEvents), "count")
	res.set("atlas.frontier_per_event", ratio(m.Frontier.Sum(), float64(m.Frontier.Count())), "count")
	res.set("atlas.converge_scratch_ms_p50", scratchTimes.quantileMs(0.5), "ms")
	res.set("atlas.allocs_per_event", ratio(float64(ms1.Mallocs-ms0.Mallocs), destEvents), "count")
	res.set("atlas.snapshot_routes_ms_p50", snapshotRoutesMs(rs), "ms")
	res.set("trace.overhead_ratio", ratio(traced.quantileMs(0.5), untraced.quantileMs(0.5)), "ratio")
	dropped := tr.Dropped()
	res.set("trace.dropped", float64(dropped), "count")
	res.check(dropped == 0, "trace rings dropped %d spans", dropped)
	ph, err := atlasPhases(fromRecords(tr.Snapshot()))
	res.check(err == nil, "span self times: %v", err)
	res.check(len(ph.apply) > 0, "no complete atlas.apply_event span was traced")
	res.set("atlas.cascade_ms_p50", ph.cascade.quantileMs(0.5), "ms")
	res.set("atlas.converge_ms_p50", ph.converge.quantileMs(0.5), "ms")
	res.set("atlas.loss_ms_p50", ph.loss.quantileMs(0.5), "ms")
	fmt.Fprintf(cfg.log, "stampbench: %d traced dest-events, %d complete apply spans\n", len(traced), len(ph.apply))
	if err := exportChrome(cfg, tr, map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "ases": rs.g.Len(),
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// snapshotRoutesMs times State.SnapshotRoutes over all three planes of
// every live state — the copy the service's publish makes per shard.
func snapshotRoutesMs(rs *replaySetup) float64 {
	n := rs.g.Len()
	kind := make([]int8, n)
	dist := make([]int32, n)
	next := make([]int32, n)
	var times samples
	for r := 0; r < snapshotReps; r++ {
		for _, st := range rs.states {
			t := time.Now()
			for p := 0; p < atlas.PlaneCount; p++ {
				st.SnapshotRoutes(p, kind, dist, next)
			}
			times.add(time.Since(t))
		}
	}
	return times.quantileMs(0.5)
}
