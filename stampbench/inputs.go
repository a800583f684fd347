package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"stamp/internal/atlas"
	"stamp/internal/runner"
	"stamp/internal/scenario"
	"stamp/internal/topology"
)

// Seed-derivation streams for the generated inputs.
const (
	streamScript int64 = iota + 1
	streamDests
	streamSubjects
)

// Read-mix shares of the generated subjects, in percent.
const (
	whyPercent     = 5
	summaryPercent = 5
	subjectCount   = 4096
)

// inputs is what the program under test receives: the generated
// snapshot, the event list and the read subjects. ASNs are the
// snapshot's own numbers; the workloads map them to the ingested
// graph's dense ids during set-up.
type inputs struct {
	ASRel    string      `json:"-"`
	Events   []wireEvent `json:"events"`
	Subjects []subject   `json:"subjects"`
}

// wireEvent is one flap-storm event.
type wireEvent struct {
	Fail bool  `json:"fail"`
	A    int64 `json:"a"`
	B    int64 `json:"b"`
}

// subject is one read: a point read of AS at the destination in slot
// Slot of the server's index, its why chain, or the summary.
type subject struct {
	Kind string `json:"kind"`
	Slot int    `json:"slot"`
	AS   int64  `json:"as"`
}

// loadInputs returns the inputs for (n, seed), generating and caching
// them on first use. Generation is outside every timed region.
func loadInputs(dir string, n int, seed int64) (*inputs, error) {
	base := filepath.Join(dir, "inputs", fmt.Sprintf("n%d-seed%d", n, seed))
	in, err := readInputs(base)
	if err == nil {
		return in, nil
	}
	tmp := base + fmt.Sprintf(".tmp%d", os.Getpid())
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	if err := generateInputs(tmp, n, seed); err != nil {
		return nil, err
	}
	os.RemoveAll(base)
	if err := os.Rename(tmp, base); err != nil {
		return nil, err
	}
	return readInputs(base)
}

func readInputs(base string) (*inputs, error) {
	data, err := os.ReadFile(filepath.Join(base, "inputs.json"))
	if err != nil {
		return nil, err
	}
	in := &inputs{}
	if err := json.Unmarshal(data, in); err != nil {
		return nil, err
	}
	in.ASRel = filepath.Join(base, "topo.asrel")
	if _, err := os.Stat(in.ASRel); err != nil {
		return nil, err
	}
	if len(in.Events) == 0 || len(in.Subjects) == 0 {
		return nil, fmt.Errorf("empty inputs in %s", base)
	}
	return in, nil
}

// generateInputs writes the snapshot of a generated n-AS topology, the
// flap-storm script drawn on it, and the read subjects.
func generateInputs(base string, n int, seed int64) error {
	t, err := topology.GenerateDefault(n, seed)
	if err != nil {
		return err
	}
	path := filepath.Join(base, "topo.asrel")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := topology.WriteASRel(f, t); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	g, err := atlas.IngestFile(path)
	if err != nil {
		return err
	}
	script, err := scenario.PickScript(g, scenario.Multihomed(g), scenario.FlapStorm,
		rand.New(rand.NewSource(runner.DeriveSeed(seed, streamScript))))
	if err != nil {
		return err
	}
	events := script.Sorted()
	if err := atlas.Repeatable(events); err != nil {
		return err
	}
	in := inputs{Events: make([]wireEvent, len(events))}
	for i, ev := range events {
		in.Events[i] = wireEvent{
			Fail: ev.Op == scenario.OpFailLink,
			A:    g.OriginalASN(ev.A),
			B:    g.OriginalASN(ev.B),
		}
	}
	rng := rand.New(rand.NewSource(runner.DeriveSeed(seed, streamSubjects)))
	in.Subjects = make([]subject, subjectCount)
	for i := range in.Subjects {
		s := subject{Kind: "state", Slot: rng.Intn(8), AS: g.OriginalASN(topology.ASN(rng.Intn(g.Len())))}
		switch r := rng.Intn(100); {
		case r < whyPercent:
			s.Kind = "why"
		case r < whyPercent+summaryPercent:
			s.Kind = "summary"
		}
		in.Subjects[i] = s
	}
	data, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(base, "inputs.json"), data, 0o644)
}

// denseEvents maps the event list onto an ingested graph.
func denseEvents(g *atlas.Graph, evs []wireEvent) ([]scenario.Event, error) {
	out := make([]scenario.Event, len(evs))
	for i, w := range evs {
		a, okA := g.DenseASN(w.A)
		b, okB := g.DenseASN(w.B)
		if !okA || !okB {
			return nil, fmt.Errorf("event %d names an AS outside the snapshot", i)
		}
		op := scenario.OpRestoreLink
		if w.Fail {
			op = scenario.OpFailLink
		}
		out[i] = scenario.Event{Op: op, A: a, B: b}
	}
	return out, nil
}

// cycled returns the first k events of the script cycled: the stream a
// run applied when it stopped after k events.
func cycled(events []scenario.Event, k int) []scenario.Event {
	out := make([]scenario.Event, k)
	for i := range out {
		out[i] = events[i%len(events)]
	}
	return out
}

// plantLink picks a link at dest that the script never touches: the
// self-test fails it behind the reference's back.
func plantLink(g *atlas.Graph, dest topology.ASN, events []scenario.Event) (scenario.Event, error) {
	used := map[[2]topology.ASN]bool{}
	for _, ev := range events {
		used[[2]topology.ASN{ev.A, ev.B}] = true
		used[[2]topology.ASN{ev.B, ev.A}] = true
	}
	for _, nb := range g.Neighbors(nil, dest) {
		if !used[[2]topology.ASN{dest, nb}] {
			return scenario.Event{Op: scenario.OpFailLink, A: dest, B: nb}, nil
		}
	}
	return scenario.Event{}, fmt.Errorf("every link at dest %d is in the script", dest)
}
