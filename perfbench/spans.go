package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one recorded interval around a call into a layer. Name is
// "<layer>.<call>". A span that stands for many calls of one function on
// one goroutine (a sink, a batch ingest) is aggregated: Calls counts them
// and Busy sums their durations, while Start and End bound the first and
// last call. For a single call Busy is End-Start.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 marks a root: one per goroutine role
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the log began
	End    float64 `json:"end_s"`
	Calls  int64   `json:"calls"`
	Busy   float64 `json:"busy_s"`
}

// layer is the part of the span name before the first dot.
func (s *span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, so untraced runs pay one nil check per call site.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a single-call span under parent (0 for a root) and returns
// its ID.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(l.t0).Seconds(), Calls: 1})
	return id
}

// end closes a span opened by begin.
func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id-1]
	s.End = time.Since(l.t0).Seconds()
	s.Busy = s.End - s.Start
}

// aggSpan accumulates many calls into one span. It belongs to the
// goroutine making the calls; flush publishes it to the log.
type aggSpan struct {
	log    *spanLog
	name   string
	parent int
	first  time.Time
	last   time.Time
	calls  int64
	busy   time.Duration
}

func (l *spanLog) aggregate(name string, parent int) *aggSpan {
	if l == nil {
		return nil
	}
	return &aggSpan{log: l, name: name, parent: parent}
}

// add records one call that began at start and ended at end.
func (a *aggSpan) add(start, end time.Time) {
	if a.calls == 0 {
		a.first = start
	}
	a.last = end
	a.calls++
	a.busy += end.Sub(start)
}

// flush appends the aggregate to the log and returns its ID; a nil or
// empty aggregate records nothing and returns 0.
func (a *aggSpan) flush() int {
	if a == nil || a.calls == 0 {
		return 0
	}
	l := a.log
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: a.parent, Name: a.name,
		Start: a.first.Sub(l.t0).Seconds(), End: a.last.Sub(l.t0).Seconds(),
		Calls: a.calls, Busy: a.busy.Seconds(),
	})
	return id
}

// selfTimes attributes every span's self time — its busy time minus the
// busy time of its children — to its layer. wall is the summed duration
// of the root spans, which the self times must add up to; worst is the
// most negative self time seen, as a share of its span (children that
// outlast their parent mean the nesting is wrong).
func (l *spanLog) selfTimes() (self map[string]float64, wall, worst float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := make([]float64, len(l.spans)+1)
	for i := range l.spans {
		if p := l.spans[i].Parent; p > 0 {
			child[p] += l.spans[i].Busy
		}
	}
	self = map[string]float64{}
	for i := range l.spans {
		s := &l.spans[i]
		st := s.Busy - child[s.ID]
		self[s.layer()] += st
		if s.Parent == 0 {
			wall += s.Busy
		}
		if s.Busy > 0 && st < 0 {
			worst = math.Min(worst, st/s.Busy)
		}
	}
	return self, wall, worst
}

// busyByName sums busy time and calls over every span with the given name.
func (l *spanLog) busyByName(name string) (busy float64, calls int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.spans {
		if l.spans[i].Name == name {
			busy += l.spans[i].Busy
			calls += l.spans[i].Calls
		}
	}
	return busy, calls
}

// write stores the spans as JSON in dir.
func (l *spanLog) write(dir, base string) (string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	path := filepath.Join(dir, base+".spans.json")
	data, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return "", fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}
