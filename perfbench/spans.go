package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"scord/internal/obs/tracing"
)

// spanLog records wall-clock spans around the benchmark's calls into the
// program's layers, one tracing.Tracer (one trace ID) per operation. The
// spans stay in memory until write. A nil *spanLog records nothing and
// costs one nil check per call, which is how the timed runs use it.
type spanLog struct {
	epoch time.Time
	id    []string

	mu  sync.Mutex
	ops []*tracing.Tracer
}

func newSpanLog(idParts ...string) *spanLog {
	return &spanLog{epoch: time.Now(), id: idParts}
}

// clock is the wall-domain clock: microseconds since the log began.
func (l *spanLog) clock() uint64 { return uint64(time.Since(l.epoch) / time.Microsecond) }

// span is one open span; a nil *span is the no-op span of an untraced
// run.
type span struct {
	s     *tracing.Span
	trace tracing.TraceID
}

// op opens the root span of a new operation under a fresh trace ID
// derived from the log's identity and the operation's ordinal.
func (l *spanLog) op(name string) *span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	parts := append(append([]string(nil), l.id...), strconv.Itoa(len(l.ops)))
	tr := tracing.New(tracing.ClockWall, tracing.DeriveTraceID(parts...), l.clock)
	tr.SetSpanCap(1 << 20)
	l.ops = append(l.ops, tr)
	l.mu.Unlock()
	return &span{tr.StartRoot(name), tr.TraceID()}
}

func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return &span{s.s.StartChild(name), s.trace}
}

// traceparent is the W3C header that makes a server continue this
// span's trace, or "" for the no-op span.
func (s *span) traceparent() string {
	if s == nil {
		return ""
	}
	return tracing.Traceparent{TraceID: s.trace, SpanID: s.s.ID(), Flags: tracing.FlagSampled}.String()
}

func (s *span) end() {
	if s != nil {
		s.s.Finish()
	}
}

// interval is a closed-open time range [start, end).
type interval struct{ start, end uint64 }

// selfTime is a span's duration minus the part of [start, end) its
// children cover. Children may overlap one another (concurrent work) or
// stick out of the parent; each instant of the parent counts once.
func selfTime(start, end uint64, kids []interval) uint64 {
	var clipped []interval
	for _, k := range kids {
		s, e := max(k.start, start), min(k.end, end)
		if s < e {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered, reach uint64
	reach = start
	for _, k := range clipped {
		if k.end <= reach {
			continue
		}
		covered += k.end - max(k.start, reach)
		reach = k.end
	}
	return end - start - covered
}

// layerOf maps a span name to its layer: the text before the first dot
// ("replay.run" belongs to replay).
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerSelf sums self time per layer over every recorded span, in
// seconds.
func (l *spanLog) layerSelf() map[string]float64 {
	out := map[string]float64{}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, tr := range l.ops {
		spans := tr.Spans()
		kids := map[tracing.SpanID][]interval{}
		for _, s := range spans {
			if !s.Parent().IsZero() {
				kids[s.Parent()] = append(kids[s.Parent()], interval{s.Start(), s.EndTime()})
			}
		}
		for _, s := range spans {
			self := selfTime(s.Start(), s.EndTime(), kids[s.ID()])
			out[layerOf(s.Name())] += float64(self) / 1e6
		}
	}
	return out
}

// spanCount returns the number of operations and spans recorded.
func (l *spanLog) spanCount() (ops, spans int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, tr := range l.ops {
		spans += tr.Len()
	}
	return len(l.ops), spans
}

// write stores every operation's span tree at path as a stream of
// scord-spans/1 JSON documents, one per trace ID.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	l.mu.Lock()
	for _, tr := range l.ops {
		if err = tr.WriteJSON(w); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
