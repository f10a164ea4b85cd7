package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// span is one timed call — or one tight loop of calls — the harness makes
// into a layer. Spans nest through parent; the spans of one round share the
// round span as their parent.
type span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"` // 0 = none
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start"` // ns since the recorder's epoch
	End      int64  `json:"end"`
	N        int64  `json:"n"`             // operations inside: packets, calls
	CPU      int64  `json:"cpu,omitempty"` // process CPU ns inside, where sampled
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	workload string
	epoch    time.Time
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// reserve makes room for n more spans now, outside any measured window.
func (r *recorder) reserve(n int) {
	if cap(r.spans)-len(r.spans) < n {
		r.spans = append(make([]span, 0, 2*cap(r.spans)+n), r.spans...)
	}
}

func (r *recorder) begin(name string, parent int32) int32 {
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Workload: r.workload,
		Start: int64(time.Since(r.epoch))})
	return id
}

func (r *recorder) end(id int32, n int64) {
	s := &r.spans[id-1]
	s.End = int64(time.Since(r.epoch))
	s.N = n
}

// timed records fn as one span of n operations.
func (r *recorder) timed(name string, parent int32, n int, fn func()) {
	id := r.begin(name, parent)
	fn()
	r.end(id, int64(n))
}

// timedCPU is timed plus the process CPU time fn consumed.
func (r *recorder) timedCPU(name string, parent int32, n int, fn func()) {
	cpu := cpuNow()
	id := r.begin(name, parent)
	fn()
	r.end(id, int64(n))
	r.spans[id-1].CPU = cpuNow() - cpu
}

// spanFile is what a traced run writes: the spans, plus the facts — exact
// counts and modelled quantities that no span can carry.
type spanFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Facts    map[string]float64 `json:"facts"`
	Spans    []span             `json:"spans"`
}

// write streams the file by hand: a traced dnn-small run holds ~100k spans
// and reflection-based encoding of those costs more than the run's budget
// for it.
func (f *spanFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(file, 1<<20)
	facts, err := json.Marshal(f.Facts)
	if err != nil {
		file.Close()
		return err
	}
	w.WriteString(`{"workload":` + strconv.Quote(f.Workload) + `,"seed":` + strconv.FormatInt(f.Seed, 10) + `,"facts":`)
	w.Write(facts)
	w.WriteString(`,"spans":[` + "\n")
	var buf []byte
	for i, s := range f.Spans {
		buf = buf[:0]
		buf = append(buf, `{"id":`...)
		buf = strconv.AppendInt(buf, int64(s.ID), 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(s.Parent), 10)
		buf = append(buf, `,"name":`...)
		buf = strconv.AppendQuote(buf, s.Name)
		buf = append(buf, `,"workload":`...)
		buf = strconv.AppendQuote(buf, s.Workload)
		buf = append(buf, `,"start":`...)
		buf = strconv.AppendInt(buf, s.Start, 10)
		buf = append(buf, `,"end":`...)
		buf = strconv.AppendInt(buf, s.End, 10)
		buf = append(buf, `,"n":`...)
		buf = strconv.AppendInt(buf, s.N, 10)
		if s.CPU != 0 {
			buf = append(buf, `,"cpu":`...)
			buf = strconv.AppendInt(buf, s.CPU, 10)
		}
		buf = append(buf, '}')
		if i+1 < len(f.Spans) {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
		w.Write(buf)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

func readSpanFile(path string) (*spanFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f spanFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	return &f, nil
}

// agg sums the spans of one name under one parent.
type agg struct {
	dur, n, cpu float64
}

// rounds groups the children of every span named parentName by their own
// name: one map per round, in start order.
func rounds(spans []span, parentName string) []map[string]agg {
	index := map[int32]int{}
	var out []map[string]agg
	for _, s := range spans {
		if s.Name == parentName {
			index[s.ID] = len(out)
			out = append(out, map[string]agg{})
		}
	}
	for _, s := range spans {
		if i, ok := index[s.Parent]; ok {
			a := out[i][s.Name]
			a.dur += s.dur()
			a.n += float64(s.N)
			a.cpu += float64(s.CPU)
			out[i][s.Name] = a
		}
	}
	return out
}
