package main

import (
	"bytes"
	"sort"
	"time"

	"fusedcc/internal/serve"
)

// span is one traced interval. Host spans carry host nanoseconds since
// the tracer started; request spans carry the request's simulated
// arrival, admission and completion instants under its request ID.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    int    `json:"req,omitempty"`
	Arrive int64  `json:"sim_arrival_ns,omitempty"`
	Admit  int64  `json:"sim_admit_ns,omitempty"`
	Done   int64  `json:"sim_done_ns,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced passes pay one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	// prof buffers the CPU profile of the measured run in progress;
	// profiles and samples keep every finished one.
	prof     bytes.Buffer
	profiles [][]byte
	samples  []sample
}

//detlint:allow wallclock -- host-time spans of the traced run
func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a host span under parent (0: a root) and returns its ID.
//
//detlint:allow wallclock -- host-time spans of the traced run
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	return id
}

// end closes the span begin returned.
//
//detlint:allow wallclock -- host-time spans of the traced run
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// request records a served request's simulated timeline under parent.
func (t *tracer) request(parent int, r *serve.Request) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: "request", Req: r.ID,
		Arrive: int64(r.Arrival), Admit: int64(r.Admit), Done: int64(r.Done),
	})
}

// selfTime is the summed self time of every host span of one name: its
// duration minus the part its child host spans cover.
type selfTime struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Ms    float64 `json:"ms"`
}

// selfTimes aggregates host-span self time by span name, largest first.
func (t *tracer) selfTimes() []selfTime {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Name != "request" && s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	idx := map[string]int{}
	var out []selfTime
	for _, s := range t.spans {
		if s.Name == "request" {
			continue
		}
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, selfTime{Name: s.Name})
		}
		out[i].Count++
		out[i].Ms += float64(s.End-s.Start-child[s.ID]) / 1e6
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Ms > out[b].Ms })
	return out
}

// hostSpans counts the tracer's host spans.
func (t *tracer) hostSpans() int {
	n := 0
	for _, s := range t.spans {
		if s.Name != "request" {
			n++
		}
	}
	return n
}
