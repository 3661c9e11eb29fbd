package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name       string
		start, end uint64
		kids       []interval
		want       uint64
	}{
		{"leaf", 0, 100, nil, 100},
		{"disjoint children", 0, 100, []interval{{10, 20}, {50, 80}}, 60},
		{"overlapping children count once", 0, 100, []interval{{10, 40}, {30, 60}}, 50},
		{"nested children", 0, 100, []interval{{10, 90}, {20, 30}}, 20},
		{"children past the parent are clipped", 10, 50, []interval{{0, 20}, {40, 70}}, 20},
		{"child outside the parent", 10, 50, []interval{{60, 70}}, 40},
		{"fully covered", 0, 100, []interval{{0, 100}}, 0},
		{"unsorted children", 0, 100, []interval{{70, 90}, {0, 10}, {5, 20}}, 60},
	} {
		if got := selfTime(c.start, c.end, c.kids); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLayerSelfSumsPerLayer(t *testing.T) {
	log := newSpanLog("test")
	root := log.op("bench.op")
	a := root.child("gpu.new")
	time.Sleep(2 * time.Millisecond)
	a.end()
	b := root.child("gpu.run")
	time.Sleep(3 * time.Millisecond)
	b.end()
	root.end()
	self := log.layerSelf()
	tr := log.ops[0].Spans()
	total := float64(tr[0].EndTime()-tr[0].Start()) / 1e6
	if got := self["bench"] + self["gpu"]; math.Abs(got-total) > 1e-9 {
		t.Errorf("self times sum to %g s, root lasted %g s", got, total)
	}
	if self["gpu"] < 0.005 {
		t.Errorf("gpu self time %g s, want at least the 5 ms slept", self["gpu"])
	}
	if ops, spans := log.spanCount(); ops != 1 || spans != 3 {
		t.Errorf("recorded %d operations and %d spans, want 1 and 3", ops, spans)
	}
}

func TestOperationsGetTheirOwnTraceID(t *testing.T) {
	log := newSpanLog("test")
	a, b := log.op("bench.a"), log.op("bench.b")
	if a.trace == b.trace {
		t.Error("two operations share a trace ID")
	}
	if a.child("gpu.run").trace != a.trace {
		t.Error("a child span left its operation's trace")
	}
	var none *spanLog
	if sp := none.op("bench.x"); sp != nil || sp.child("y") != nil || sp.traceparent() != "" {
		t.Error("the nil log recorded a span")
	}
}
