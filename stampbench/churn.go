package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"stamp/internal/obs"
	"stamp/internal/serve"
	"stamp/internal/trace"
)

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	kind string
	data []byte
	at   time.Time
}

// sseClient reads /events and records when each epoch arrives.
type sseClient struct {
	arrivals map[uint64][]time.Time
	gaps     int
	frames   int
	err      error
	mu       sync.Mutex
	latest   uint64
}

func (s *sseClient) seen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest
}

// read consumes the stream until the body closes. A read error is the
// stream failing unless ctx was cancelled first (the run closing it).
func (s *sseClient) read(ctx context.Context, body io.Reader, onEpoch func(epoch uint64)) {
	br := bufio.NewReaderSize(body, 64<<10)
	var fr sseFrame
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			if ctx.Err() == nil {
				s.err = fmt.Errorf("stream ended: %w", err)
			}
			return
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if fr.kind == "" && fr.data == nil {
				continue
			}
			fr.at = time.Now()
			s.frame(fr, onEpoch)
			fr = sseFrame{}
		case bytes.HasPrefix(line, []byte("event: ")):
			fr.kind = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			fr.data = append([]byte(nil), line[len("data: "):]...)
		}
	}
}

func (s *sseClient) frame(fr sseFrame, onEpoch func(uint64)) {
	s.frames++
	switch fr.kind {
	case "gap":
		s.gaps++
	case "event-applied":
		var ev obs.Event
		var rec serve.EventRecord
		if err := json.Unmarshal(fr.data, &ev); err != nil || json.Unmarshal(ev.Data, &rec) != nil {
			s.err = fmt.Errorf("undecodable event-applied frame: %s", fr.data)
			return
		}
		s.arrivals[rec.Epoch] = append(s.arrivals[rec.Epoch], fr.at)
		if onEpoch != nil {
			onEpoch(rec.Epoch)
		}
		s.mu.Lock()
		s.latest = max(s.latest, rec.Epoch)
		s.mu.Unlock()
	}
}

// runServeChurn is serve-churn-10k: the service event path with a
// back-to-back writer and one SSE client.
func runServeChurn(cfg runConfig) (*result, error) {
	readSLO := time.Duration(0)
	if cfg.traced {
		// Every read breaches a 1 ns SLO, so the harvester's index read
		// makes the flight recorder dump the service's own span rings
		// (at most once a second) for the per-phase split.
		readSLO = time.Nanosecond
	}
	r, err := startServe(cfg, readSLO)
	if err != nil {
		return nil, err
	}
	defer r.ss.close()
	res := r.res
	r.setCommon()

	before, err := r.scrape()
	if err != nil {
		return nil, err
	}
	epoch0 := r.ss.srv.Epoch()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/events?from=%d", r.ss.base, r.ss.srv.EventLog().LastSeq()), nil)
	resp, err := newClient(0).Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET /events: %s", resp.Status)
	}
	sse := &sseClient{arrivals: map[uint64][]time.Time{}}
	// Traced runs parent each SSE frame's span under its event's apply
	// span.
	var spanMu sync.Mutex
	applySpans := map[uint64]trace.SpanID{}
	var onEpoch func(uint64)
	if r.tr != nil {
		onEpoch = func(epoch uint64) {
			spanMu.Lock()
			parent, ok := applySpans[epoch]
			spanMu.Unlock()
			if ok {
				sp := r.tr.Event(shardSSE).StartChild(parent, "bench.sse_frame")
				sp.Arg("epoch", int64(epoch))
				sp.End()
			}
		}
	}
	sseDone := make(chan struct{})
	go func() {
		defer close(sseDone)
		sse.read(ctx, resp.Body, onEpoch)
	}()
	defer func() {
		cancel()
		resp.Body.Close()
		<-sseDone
	}()

	var harvest *harvester
	var hwg sync.WaitGroup
	hstop := make(chan struct{})
	if cfg.traced {
		harvest = &harvester{r: r, spans: map[uint64]span{}}
		hwg.Add(1)
		go func() {
			defer hwg.Done()
			harvest.run(hstop)
		}()
	}

	capEvents := int(cfg.window.Seconds()) * 2000
	calls := make([]time.Time, 0, capEvents)
	rets := make([]time.Time, 0, capEvents)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(cfg.window)
	applied := 0
	var writerErr error
	for time.Now().Before(deadline) {
		ev := r.ss.events[applied%len(r.ss.events)]
		epoch := epoch0 + uint64(applied) + 1
		var root trace.Span
		if r.tr != nil && applied < serveTraceBudget {
			root = r.tr.Event(shardWriter).Start("bench.apply")
			root.Arg("epoch", int64(epoch))
			spanMu.Lock()
			applySpans[epoch] = root.ID()
			spanMu.Unlock()
		}
		t := time.Now()
		rec, err := r.ss.srv.ApplyEvent(ev)
		ret := time.Now()
		root.End()
		if err != nil {
			writerErr = err
			break
		}
		if rec.Epoch != epoch {
			writerErr = fmt.Errorf("event %d published epoch %d, want %d", applied, rec.Epoch, epoch)
			break
		}
		calls = append(calls, t)
		rets = append(rets, ret)
		applied++
	}
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	if cfg.traced {
		close(hstop)
		hwg.Wait()
	}
	after, err := r.scrape()
	if err != nil {
		return nil, err
	}
	// Let the stream catch up with the last applied epoch.
	last := epoch0 + uint64(applied)
	for wait := time.Now().Add(10 * time.Second); sse.seen() < last && time.Now().Before(wait); {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	resp.Body.Close()
	<-sseDone

	res.ops(int64(applied), 0, "")
	if writerErr != nil {
		res.fail("writer stopped after %d events: %v", applied, writerErr)
	}
	// Every applied epoch arrives on SSE exactly once, with no gap frame.
	var visible, delivery samples
	var missing, dup int64
	for i := 0; i < applied; i++ {
		at := sse.arrivals[epoch0+uint64(i)+1]
		if len(at) != 1 {
			if len(at) == 0 {
				missing++
			} else {
				dup++
			}
			continue
		}
		visible.add(at[0].Sub(calls[i]))
		delivery.add(at[0].Sub(rets[i]))
	}
	res.ops(int64(applied), missing+dup, fmt.Sprintf("SSE epoch frames (%d missing, %d repeated)", missing, dup))
	res.check(sse.gaps == 0, "SSE stream reported %d gaps", sse.gaps)
	res.check(sse.err == nil, "SSE stream: %v", sse.err)
	var health struct {
		Epoch uint64 `json:"epoch"`
	}
	err = r.getJSON("/healthz", &health)
	res.check(err == nil && health.Epoch == uint64(applied), "healthz epoch %d, want %d applied events (err %v)", health.Epoch, applied, err)
	if cfg.plant {
		if err := r.plant(); err != nil {
			return nil, err
		}
	}
	r.probe(applied)

	callMs := make(samples, applied)
	for i := range callMs {
		callMs[i] = int64(rets[i].Sub(calls[i]))
	}
	res.named("events_per_s", float64(applied)/elapsed.Seconds(), "1/s")
	res.named("event_cpu_ms", ratio(cpu.Seconds()*1e3, float64(applied)), "ms")
	res.named("event_apply_ms_p50", callMs.quantileMs(0.5), "ms")
	res.named("event_visible_ms_p50", visible.quantileMs(0.5), "ms")
	res.named("event_visible_ms_p99", visible.quantileMs(0.99), "ms")
	res.named("events_applied", float64(applied), "count")
	if !cfg.traced {
		res.set("cpu_ms_per_op", ratio(cpu.Seconds()*1e3, float64(applied)), "ms")
		// Drop the per-event samples before weighing the heap.
		calls, rets, callMs, visible, delivery, sse = nil, nil, nil, nil, nil, nil
		r.setHeapLive()
		return res, nil
	}
	res.set("serve.event_visible_ms_p99", visible.quantileMs(0.99), "ms")
	r.setLayerDeltas(before, after, applied)
	res.set("serve.apply_ms_p50", callMs.quantileMs(0.5), "ms")
	res.set("serve.apply_ms_p99", callMs.quantileMs(0.99), "ms")
	res.set("serve.sse_delivery_ms_p50", delivery.quantileMs(0.5), "ms")
	res.set("serve.sse_delivery_ms_p99", delivery.quantileMs(0.99), "ms")
	res.set("atlas.allocs_per_event", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(applied*dests)), "count")
	harvest.report(res)
	r.finishTrace(res)
	return res, nil
}

// harvester collects the service's own spans: each round makes the
// flight recorder dump its rings (an index read that breaches the 1 ns
// read SLO) and reads the dump back from GET /debug/flight.
type harvester struct {
	r      *serveRun
	spans  map[uint64]span
	dumps  int
	failed int
	err    error
}

// A last round runs when stop closes, so a window shorter than
// harvestEvery still yields spans.
func (h *harvester) run(stop <-chan struct{}) {
	tick := time.NewTicker(harvestEvery)
	defer tick.Stop()
	for done := false; !done; {
		select {
		case <-stop:
			done = true
		case <-tick.C:
		}
		h.dumps++
		var idx serve.StateIndex
		err := h.r.getJSON("/state", &idx)
		var body []byte
		if err == nil {
			body, err = get(h.r.client, h.r.ss.base+"/debug/flight")
		}
		var spans []span
		if err == nil {
			spans, err = parseChrome(bytes.NewReader(body))
		}
		if err != nil {
			h.failed++
			h.err = err
			continue
		}
		for _, s := range spans {
			h.spans[s.id] = s
		}
	}
}

// report sets the per-phase metrics from the harvested spans.
func (h *harvester) report(res *result) {
	res.ops(int64(h.dumps), int64(h.failed), fmt.Sprintf("flight-recorder harvests (%v)", h.err))
	all := make([]span, 0, len(h.spans))
	var publish samples
	for _, s := range h.spans {
		all = append(all, s)
		if s.name == "serve.publish" {
			publish = append(publish, s.dur)
		}
	}
	ph, err := atlasPhases(all)
	res.check(err == nil, "service span self times: %v", err)
	res.check(len(ph.apply) > 0, "no complete atlas.apply_event span was harvested")
	res.set("atlas.apply_event_ms_p50", ph.apply.quantileMs(0.5), "ms")
	res.set("atlas.apply_event_ms_p99", ph.apply.quantileMs(0.99), "ms")
	res.set("atlas.cascade_ms_p50", ph.cascade.quantileMs(0.5), "ms")
	res.set("atlas.converge_ms_p50", ph.converge.quantileMs(0.5), "ms")
	res.set("atlas.loss_ms_p50", ph.loss.quantileMs(0.5), "ms")
	res.set("atlas.us_per_changed_route", ratio(ph.apply.sumMs()*1e3, float64(ph.changed)), "us")
	res.set("serve.publish_ms_p50", publish.quantileMs(0.5), "ms")
}
