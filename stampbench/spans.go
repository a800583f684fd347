package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"stamp/internal/trace"
)

// span is one completed span, from the benchmark's own tracer or from
// a flight-recorder dump the service rendered.
type span struct {
	id, parent uint64
	name       string
	start, dur int64 // ns
	reroot     bool
	changed    int64 // routes an atlas.apply_event changed
}

func fromRecords(recs []trace.Record) []span {
	out := make([]span, len(recs))
	for i := range recs {
		r := &recs[i]
		s := span{id: r.Span, parent: r.Parent, name: r.Name, start: r.Start, dur: r.Dur}
		for k := int32(0); k < r.NArgs; k++ {
			switch r.Args[k].Key {
			case "reroot":
				s.reroot = r.Args[k].Val != 0
			case "changed":
				s.changed = r.Args[k].Val
			}
		}
		out[i] = s
	}
	return out
}

// parseChrome reads the spans of a Chrome trace document: timestamps
// in microseconds, causal ids and numeric annotations in args.
func parseChrome(r io.Reader) ([]span, error) {
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, err
	}
	out := make([]span, len(doc.TraceEvents))
	for i, ev := range doc.TraceEvents {
		num := func(k string) float64 {
			v, _ := ev.Args[k].(float64) // absent or non-numeric args read 0
			return v
		}
		out[i] = span{
			id: uint64(num("span")), parent: uint64(num("parent")), name: ev.Name,
			start: int64(math.Round(ev.TS * 1e3)), dur: int64(math.Round(ev.Dur * 1e3)),
			reroot: num("reroot") != 0, changed: int64(num("changed")),
		}
	}
	return out, nil
}

// phases is the engine's per-event time split, one sample per
// atlas.apply_event span: cascade and converge are the self times of
// the atlas.cascade and atlas.plane_* children, loss is the apply
// span's own self time (everything not in cascade or converge — the
// loss bookkeeping).
type phases struct {
	apply, cascade, converge, loss samples
	changed                        int64
}

// atlasPhases splits every complete atlas.apply_event span in spans. A
// span is complete when all its children are present: three plane
// spans and three cascades (one on a reroot, where red and blue
// re-initialise instead). It returns an error when the self times do
// not add up to the apply spans' total, i.e. when children overlap or
// leave their parent.
func atlasPhases(spans []span) (phases, error) {
	kids := map[uint64][]*span{}
	for i := range spans {
		s := &spans[i]
		if s.parent != 0 && (s.name == "atlas.cascade" || strings.HasPrefix(s.name, "atlas.plane_")) {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	var ph phases
	var total, parts int64
	for i := range spans {
		s := &spans[i]
		if s.name != "atlas.apply_event" {
			continue
		}
		var nCascade, nPlane int
		var cascade, converge int64
		ks := kids[s.id]
		for _, k := range ks {
			if k.name == "atlas.cascade" {
				nCascade++
				cascade += selfTime(k, kids[k.id])
			} else {
				nPlane++
				converge += selfTime(k, kids[k.id])
			}
		}
		wantCascade := 3
		if s.reroot {
			wantCascade = 1
		}
		if nPlane != 3 || nCascade != wantCascade {
			continue
		}
		loss := selfTime(s, ks)
		ph.apply = append(ph.apply, s.dur)
		ph.cascade = append(ph.cascade, cascade)
		ph.converge = append(ph.converge, converge)
		ph.loss = append(ph.loss, loss)
		ph.changed += s.changed
		total += s.dur
		parts += cascade + converge + loss
	}
	if d := total - parts; math.Abs(float64(d)) > 1e-3*float64(total) {
		return ph, fmt.Errorf("cascade+converge+loss self times (%d ns) do not add up to atlas.apply_event (%d ns)", parts, total)
	}
	return ph, nil
}

// selfTime is s's duration minus the part of its interval its children
// cover (overlapping children count once).
func selfTime(s *span, children []*span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	end := s.start + s.dur
	for _, c := range children {
		a, b := max(c.start, s.start), min(c.start+c.dur, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			covered += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		covered += curB - curA
	}
	return s.dur - covered
}

// exportChrome writes the tracer's spans as a Chrome trace file.
func exportChrome(cfg runConfig, t *trace.Tracer, meta map[string]any) error {
	path := tracePath(cfg)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, t.Snapshot(), meta); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
