package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"stamp/internal/atlas"
	"stamp/internal/obs"
	"stamp/internal/serve"
	"stamp/internal/trace"
)

// readConn is one closed-loop connection's measurements.
type readConn struct {
	id                   int
	client               *http.Client
	all, state, why, sum samples
	staleness            []float64
	scrapes              samples
	scrapeBytes          []float64
	attempted, failed    int64
	firstErr             error
	// Epochs seen on this connection: per destination snapshot (point
	// and summary reads), and the server-wide epoch why reports.
	lastSnap   map[int64]uint64
	lastGlobal uint64
	traced     int
}

func (c *readConn) failf(format string, args ...any) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = fmt.Errorf(format, args...)
	}
}

// whyEpoch is the part of a why response the checks read.
type whyEpoch struct {
	Epoch  uint64 `json:"epoch"`
	Dest   int64  `json:"dest"`
	AS     int64  `json:"as"`
	Chains []struct {
		Truncated bool `json:"truncated"`
	} `json:"chains"`
}

// run issues reads back to back until the deadline; connection 0 also
// scrapes /metrics once per scrapeEvery.
func (c *readConn) run(r *serveRun, urls []string, deadline time.Time) {
	subjects := r.in.Subjects
	lastScrape := time.Now()
	var buf bytes.Buffer
	for i := c.id; time.Now().Before(deadline); i += readConns {
		if c.id == 0 && time.Since(lastScrape) >= scrapeEvery {
			lastScrape = time.Now()
			c.attempted++
			body, err := getInto(c.client, r.ss.base+"/metrics", &buf)
			d := time.Since(lastScrape)
			if err == nil {
				_, err = obs.ParseText(bytes.NewReader(body))
			}
			if err != nil {
				c.failf("scrape: %v", err)
				continue
			}
			c.scrapes.add(d)
			c.scrapeBytes = append(c.scrapeBytes, float64(len(body)))
		}
		s := subjects[i%len(subjects)]
		destASN := r.destASNs[s.Slot]
		var root trace.Span
		var tc trace.Ctx
		traceThis := r.tr != nil && i%readTraceEvery < readConns && c.traced < serveTraceBudget
		if traceThis {
			tc = r.tr.Event(shardConn0 + c.id)
			root = tc.Start("bench.read")
			c.traced++
		}
		c.attempted++
		t := time.Now()
		body, err := getInto(c.client, urls[i%len(urls)], &buf)
		var dec trace.Span
		if traceThis {
			dec = tc.StartChild(root.ID(), "bench.decode")
		}
		if err != nil {
			c.failf("read %s: %v", urls[i%len(urls)], err)
			continue
		}
		switch s.Kind {
		case "state":
			var sr serve.StateRead
			err = json.Unmarshal(body, &sr)
			d := time.Since(t)
			if err != nil || sr.Dest != destASN || sr.AS != s.AS || len(sr.Planes) != atlas.PlaneCount {
				c.failf("point read (dest %d, AS %d) did not decode: %v %s", destASN, s.AS, err, body)
				continue
			}
			if !c.snapEpoch(destASN, sr.Epoch) {
				continue
			}
			c.state.add(d)
			c.all.add(d)
			c.staleness = append(c.staleness, float64(int64(r.ss.srv.Epoch())-int64(sr.Epoch)))
		case "summary":
			var sum serve.StateSummary
			err = json.Unmarshal(body, &sum)
			d := time.Since(t)
			if err != nil || sum.Dest != destASN || len(sum.Reachable) != atlas.PlaneCount {
				c.failf("summary read (dest %d) did not decode: %v %s", destASN, err, body)
				continue
			}
			if !c.snapEpoch(destASN, sum.Epoch) {
				continue
			}
			c.sum.add(d)
			c.all.add(d)
		case "why":
			var w whyEpoch
			err = json.Unmarshal(body, &w)
			d := time.Since(t)
			if err != nil || w.Dest != destASN || w.AS != s.AS || len(w.Chains) != atlas.PlaneCount {
				c.failf("why read (dest %d, AS %d) did not decode: %v %s", destASN, s.AS, err, body)
				continue
			}
			if w.Epoch < c.lastGlobal {
				c.failf("why epoch went back from %d to %d", c.lastGlobal, w.Epoch)
				continue
			}
			c.lastGlobal = w.Epoch
			c.why.add(d)
			c.all.add(d)
		}
		if traceThis {
			dec.End()
			root.End()
		}
	}
}

// snapEpoch checks that a destination's snapshot epoch never goes back
// on this connection.
func (c *readConn) snapEpoch(dest int64, epoch uint64) bool {
	if prev := c.lastSnap[dest]; epoch < prev {
		c.failf("dest %d snapshot epoch went back from %d to %d", dest, prev, epoch)
		return false
	}
	c.lastSnap[dest] = epoch
	return true
}

// runServeRead is serve-read-10k: the service read path under two
// closed-loop connections while the writer applies 20 events/s.
func runServeRead(cfg runConfig) (*result, error) {
	r, err := startServe(cfg, 0)
	if err != nil {
		return nil, err
	}
	defer r.ss.close()
	res := r.res
	r.setCommon()

	urls := make([]string, len(r.in.Subjects))
	for i, s := range r.in.Subjects {
		dest := r.destASNs[s.Slot]
		switch s.Kind {
		case "state":
			urls[i] = fmt.Sprintf("%s/state/%d?as=%d", r.ss.base, dest, s.AS)
		case "why":
			urls[i] = fmt.Sprintf("%s/state/%d/%d/why", r.ss.base, dest, s.AS)
		default:
			urls[i] = fmt.Sprintf("%s/state/%d", r.ss.base, dest)
		}
	}
	conns := make([]*readConn, readConns)
	for i := range conns {
		conns[i] = &readConn{id: i, client: newClient(30 * time.Second), lastSnap: map[int64]uint64{}}
		conns[i].all = make(samples, 0, int(cfg.window.Seconds())*20000/readConns)
	}
	before, err := r.scrape()
	if err != nil {
		return nil, err
	}
	epoch0 := r.ss.srv.Epoch()

	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(cfg.window)
	var wg sync.WaitGroup
	var applyTimes samples
	applied := 0
	var writerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(readPace)
		defer tick.Stop()
		for time.Now().Before(deadline) {
			<-tick.C
			t := time.Now()
			_, err := r.ss.srv.ApplyEvent(r.ss.events[applied%len(r.ss.events)])
			if err != nil {
				writerErr = err
				return
			}
			applyTimes.add(time.Since(t))
			applied++
		}
	}()
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(r, urls, deadline)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	after, err := r.scrape()
	if err != nil {
		return nil, err
	}

	res.ops(int64(applied), 0, "")
	if writerErr != nil {
		res.fail("writer stopped after %d events: %v", applied, writerErr)
	}
	epoch1 := r.ss.srv.Epoch()
	res.check(epoch1 > epoch0, "epoch did not advance over the run (%d -> %d)", epoch0, epoch1)
	var all, state, why, sum, scrapes samples
	var staleness []float64
	var scrapeBytes []float64
	for _, c := range conns {
		res.ops(c.attempted, c.failed, fmt.Sprintf("operations on connection %d (first: %v)", c.id, c.firstErr))
		all = append(all, c.all...)
		state = append(state, c.state...)
		why = append(why, c.why...)
		sum = append(sum, c.sum...)
		scrapes = append(scrapes, c.scrapes...)
		scrapeBytes = append(scrapeBytes, c.scrapeBytes...)
		staleness = append(staleness, c.staleness...)
	}
	if cfg.plant {
		if err := r.plant(); err != nil {
			return nil, err
		}
	}
	r.probe(applied)

	reads := float64(len(all))
	res.named("reads_per_s", reads/elapsed.Seconds(), "1/s")
	res.named("read_ms_p50", all.quantileMs(0.5), "ms")
	res.named("read_ms_p99", all.quantileMs(0.99), "ms")
	res.named("read_cpu_ms", ratio(cpu.Seconds()*1e3, reads), "ms")
	res.named("reads", reads, "count")
	res.named("events_applied", float64(applied), "count")
	if !cfg.traced {
		res.set("cpu_ms_per_op", ratio(cpu.Seconds()*1e3, reads), "ms")
		// Drop the per-read samples before weighing the heap.
		conns, all, state, why, sum, scrapes, staleness, scrapeBytes, applyTimes = nil, nil, nil, nil, nil, nil, nil, nil, nil
		r.setHeapLive()
		return res, nil
	}
	res.set("serve.read_ms_p99", all.quantileMs(0.99), "ms")
	r.setLayerDeltas(before, after, applied)
	res.set("serve.apply_ms_p50", applyTimes.quantileMs(0.5), "ms")
	res.set("serve.apply_ms_p99", applyTimes.quantileMs(0.99), "ms")
	res.set("serve.apply_paced_ms_p50", applyTimes.quantileMs(0.5), "ms")
	res.set("serve.read_state_ms_p50", state.quantileMs(0.5), "ms")
	res.set("serve.read_state_ms_p99", state.quantileMs(0.99), "ms")
	res.set("serve.read_why_ms_p50", why.quantileMs(0.5), "ms")
	res.set("serve.read_why_ms_p99", why.quantileMs(0.99), "ms")
	res.set("serve.read_summary_ms_p50", sum.quantileMs(0.5), "ms")
	d := func(name string) float64 { return delta(before, after, name) }
	res.set("serve.handler_read_ms_mean", 1e3*ratio(d("stamp_serve_read_seconds_sum"), d("stamp_serve_read_seconds_count")), "ms")
	res.set("serve.read_staleness_epochs_p99", quantile(staleness, 0.99), "epochs")
	res.set("serve.why_truncated_share", ratio(d("stamp_serve_why_truncated_total"), d("stamp_serve_why_total")), "ratio")
	res.set("obs.scrape_ms_p50", scrapes.quantileMs(0.5), "ms")
	res.set("obs.scrape_bytes", quantile(scrapeBytes, 0.5), "bytes")
	r.finishTrace(res)
	return res, nil
}
