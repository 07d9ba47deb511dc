package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// Spans are recorded only from the benchmark's own files, around calls into
// each layer: name, start, end, the span that caused it, and the batch both
// belong to. They live in a preallocated ring and are written out as JSONL
// when the run ends.

type span struct {
	name   uint8
	parent int32 // index in the ring, -1 for a root
	batch  int32
	start  int64 // ns since the ring's epoch
	end    int64
}

type spanRing struct {
	epoch time.Time
	names []string
	buf   []span
	n     int // spans ever recorded; buf holds the last len(buf) of them
}

func newSpanRing(capacity int) *spanRing {
	return &spanRing{epoch: time.Now(), buf: make([]span, capacity)}
}

// nameID interns a span name. Interning is for set-up code: hot loops hold on
// to the id.
func (r *spanRing) nameID(name string) uint8 {
	for i, n := range r.names {
		if n == name {
			return uint8(i)
		}
	}
	if len(r.names) == 256 {
		panic("bench: more than 256 span names")
	}
	r.names = append(r.names, name)
	return uint8(len(r.names) - 1)
}

func (r *spanRing) now() int64 { return int64(time.Since(r.epoch)) }

// add records a finished span and returns its index for children to name.
func (r *spanRing) add(name uint8, parent, batch int32, start, end int64) int32 {
	i := r.n
	r.buf[i%len(r.buf)] = span{name: name, parent: parent, batch: batch, start: start, end: end}
	r.n++
	return int32(i)
}

// live returns the spans still in the ring, oldest first, with the index the
// first of them was recorded under.
func (r *spanRing) live() (first int, spans []span) {
	if r.n <= len(r.buf) {
		return 0, r.buf[:r.n]
	}
	at := r.n % len(r.buf)
	return r.n - len(r.buf), append(append([]span(nil), r.buf[at:]...), r.buf[:at]...)
}

// selfTimes returns, per span name, total duration, total self time (duration
// minus the time covered by the span's children) and span count, over the
// spans still in the ring. Children of one parent never overlap here — the
// harness records them one after another — so covered time is their sum.
func (r *spanRing) selfTimes() (total, self []int64, count []int) {
	total, self, count = make([]int64, len(r.names)), make([]int64, len(r.names)), make([]int, len(r.names))
	first, spans := r.live()
	child := make([]int64, len(spans))
	for _, s := range spans {
		if p := int(s.parent) - first; s.parent >= 0 && p >= 0 {
			child[p] += s.end - s.start
		}
	}
	for i, s := range spans {
		d := s.end - s.start
		total[s.name] += d
		self[s.name] += d - child[i]
		count[s.name]++
	}
	return total, self, count
}

// writeJSONL dumps the ring, one span per line.
func (r *spanRing) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	first, spans := r.live()
	for i, s := range spans {
		rec := struct {
			ID     int    `json:"id"`
			Name   string `json:"name"`
			Parent int32  `json:"parent"`
			Batch  int32  `json:"batch"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{first + i, r.names[s.name], s.parent, s.batch, s.start, s.end}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
