package main

import (
	"io"
	"strings"
	"testing"
	"time"
)

// selfTestN keeps the self-test's topologies tiny; every workload still
// runs end to end (generate, ingest, converge, load, correctness gates).
const selfTestN = 1200

func runTiny(t *testing.T, name string, traced, plant bool) *result {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	res, err := execute(w, runConfig{
		workload: name, seed: 3, window: time.Second, traced: traced,
		n: selfTestN, dir: t.TempDir(), plant: plant, log: io.Discard,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// TestWorkloadsEndToEnd runs every workload untraced and traced: no
// operation fails, and each mode reports exactly its metric set.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := runTiny(t, w.name, traced, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d/%d: %s",
					w.name, traced, res.Correct, res.Failed, res.Attempted, strings.Join(res.failures, "; "))
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.name, got, m.unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, got.Value)
				}
			}
		}
	}
}

// TestPlantedWrongRouteFails fails, behind the reference's back, one
// link at a destination: every workload's correctness gates must count
// the wrong routes as failed operations.
func TestPlantedWrongRouteFails(t *testing.T) {
	for _, w := range workloads {
		res := runTiny(t, w.name, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: planted wrong route went unnoticed (correct=%v failed=%d/%d)",
				w.name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := &span{start: 0, dur: 100}
	kids := []*span{{start: 10, dur: 20}, {start: 20, dur: 20}, {start: 90, dur: 30}}
	// Children cover [10,40) and [90,100): 40 ns of 100.
	if got := selfTime(parent, kids); got != 60 {
		t.Fatalf("selfTime = %d, want 60", got)
	}
}

func TestAtlasPhasesAddUp(t *testing.T) {
	spans := []span{
		{id: 1, name: "atlas.apply_event", start: 0, dur: 100, changed: 4},
		{id: 2, parent: 1, name: "atlas.cascade", start: 0, dur: 10},
		{id: 3, parent: 1, name: "atlas.plane_bgp", start: 10, dur: 10},
		{id: 4, parent: 1, name: "atlas.cascade", start: 20, dur: 10},
		{id: 5, parent: 1, name: "atlas.plane_red", start: 30, dur: 10},
		{id: 6, parent: 1, name: "atlas.cascade", start: 40, dur: 10},
		{id: 7, parent: 1, name: "atlas.plane_blue", start: 50, dur: 10},
		// Incomplete: a plane span is missing, so it is skipped.
		{id: 8, name: "atlas.apply_event", start: 200, dur: 50},
	}
	ph, err := atlasPhases(spans)
	if err != nil {
		t.Fatal(err)
	}
	if len(ph.apply) != 1 || ph.cascade[0] != 30 || ph.converge[0] != 30 || ph.loss[0] != 40 || ph.changed != 4 {
		t.Fatalf("phases = %+v", ph)
	}
	// Overlapping children no longer add up to the parent.
	spans[3].start = 5
	if _, err := atlasPhases(spans); err == nil {
		t.Fatal("overlapping child spans passed the self-time check")
	}
}
