package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
)

// span is one timed call into a layer, recorded by the traced run around
// the public function it calls. IO is the chip time spent directly inside
// the span (row reads and writes are counted, not recorded as spans).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root
	Op     int           `json:"op"`     // operation index; spans of one op share it
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	IO     time.Duration `json:"io_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory for one goroutine's closed loop and writes
// them out once the run ends.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span IDs (= indices)

	readRows, writeRows int64
	readTime, writeTime time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(op int, name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Since(t.epoch)})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = time.Since(t.epoch)
}

// reindex returns the spans with IDs and parents shifted by offset, for
// merging one job's spans into a shared list.
func (t *tracer) reindex(offset int) []span {
	out := make([]span, len(t.spans))
	for i, s := range t.spans {
		s.ID += offset
		if s.Parent >= 0 {
			s.Parent += offset
		}
		out[i] = s
	}
	return out
}

// chipIO charges one row read or write to the innermost open span.
func (t *tracer) chipIO(read bool, d time.Duration) {
	if read {
		t.readRows++
		t.readTime += d
	} else {
		t.writeRows++
		t.writeTime += d
	}
	if n := len(t.open); n > 0 {
		t.spans[t.open[n-1]].IO += d
	}
}

// selfTimes returns each span's duration minus the time its child spans
// and its direct chip I/O cover, indexed by span ID.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur() - s.IO
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// layerTotals sums span durations and self times by span name.
func (t *tracer) layerTotals() (total, self map[string]time.Duration) {
	total = make(map[string]time.Duration)
	self = make(map[string]time.Duration)
	for i, st := range t.selfTimes() {
		total[t.spans[i].Name] += t.spans[i].dur()
		self[t.spans[i].Name] += st
	}
	return total, self
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
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

// rowReader and layoutKeyer are the optional Chip extensions internal/core
// looks for; tracedChip forwards both so the collection fast path and the
// discovery cache key behave exactly as on the bare chip.
type rowReader interface {
	ReadRowInto(bank, row int, data []byte) []byte
}

// tracedChip wraps a chip and charges every row read and write to the
// tracer. Everything else forwards unchanged.
type tracedChip struct {
	core.Chip
	t *tracer
}

func (c *tracedChip) WriteRow(bank, row int, data []byte) {
	start := time.Now()
	c.Chip.WriteRow(bank, row, data)
	c.t.chipIO(false, time.Since(start))
}

func (c *tracedChip) ReadRow(bank, row int) []byte {
	start := time.Now()
	out := c.Chip.ReadRow(bank, row)
	c.t.chipIO(true, time.Since(start))
	return out
}

func (c *tracedChip) ReadRowInto(bank, row int, data []byte) []byte {
	start := time.Now()
	var out []byte
	if rr, ok := c.Chip.(rowReader); ok {
		out = rr.ReadRowInto(bank, row, data)
	} else {
		out = append(data[:0], c.Chip.ReadRow(bank, row)...)
	}
	c.t.chipIO(true, time.Since(start))
	return out
}

func (c *tracedChip) LayoutKey() string {
	if lk, ok := c.Chip.(core.LayoutKeyer); ok {
		return lk.LayoutKey()
	}
	return ""
}
