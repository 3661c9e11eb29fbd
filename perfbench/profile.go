package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strconv"
	"time"

	"scord/internal/replay"
	"scord/internal/scor/micro"
	"scord/internal/serve"
	"scord/internal/tracefile"
)

// The traced run. Every traced run reports every per-layer metric, so it
// profiles the layers of all three workloads whichever --workload it is
// given: the sim pass, a serve server under load, and an analysis pass.
// Each part runs untraced and traced; the difference is the tracing
// overhead. Spans are kept in memory and written out at the end.

// layers are the span layers self time is reported for: bench is the
// benchmark's own code between calls into the program.
var layers = []string{"bench", "gpu", "core", "tracefile", "detectors", "replay", "serve", "predict", "explore"}

func runProfile(o opts, r *report) error {
	log := newSpanLog("perfbench", o.workload, strconv.FormatInt(o.seed, 10))
	if err := profileSim(simSeed(o.seed), r, log); err != nil {
		return err
	}
	if err := profileServe(o, r, log); err != nil {
		return err
	}
	if err := profileAnalysis(o.seed, r, log); err != nil {
		return err
	}
	self := log.layerSelf()
	for _, l := range layers {
		r.set("self_s."+l, "s", self[l])
	}
	nOps, nSpans := log.spanCount()
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := log.write(path); err != nil {
		return err
	}
	fmt.Printf("profile: %d operations, %d spans written to %s\n", nOps, nSpans, path)
	return nil
}

// profileWindows is how many untraced and how many traced closed-loop
// windows of profileWindow the traced run alternates to measure the
// tracing overhead on serve.
const (
	profileWindows = 3
	profileWindow  = 2 * time.Second
)

// profileServe measures the serve, tracefile, detectors and replay
// layers on the serve workload, on one fresh server: closed-loop windows
// alternating untraced and traced, a traced open loop sampling
// Pool.Queued() every millisecond, then probes that call each layer
// directly on every corpus trace.
func profileServe(o opts, r *report, log *spanLog) error {
	sessions := sessionsFor(o.seconds*openShare, len(serveLarge)+len(micro.All()))
	env, err := setupServe(o.seed, sessions)
	if err != nil {
		return err
	}
	defer env.close()

	var closed recorder
	var plain, traced []float64
	for k := 0; k < profileWindows; k++ {
		for _, l := range []*spanLog{nil, log} {
			var rc recorder
			rates := env.closedLoop(profileWindow, l, &rc)
			if l == nil {
				plain = append(plain, rates...)
			} else {
				traced = append(traced, rates...)
			}
			closed.add(rc.all()...)
		}
	}
	r.set("tracing.overhead_pct.serve", "%", (median(plain)/median(traced)-1)*100)

	hits0, misses0 := env.srv.Cache().Counters()
	_, rejected0, _, _ := env.srv.Pool().Counters()
	q := sampleQueue(env.srv.Pool())
	var open recorder
	late := env.openLoop(0, sessions, log, &open)
	depth := q.end()
	hits, misses := env.srv.Cache().Counters()
	_, rejected, _, _ := env.srv.Pool().Counters()

	r.set("serve.cache_hit_ratio", "fraction", ratio(hits-hits0, hits-hits0+misses-misses0))
	r.set("serve.queue_depth_max", "jobs", percentile(depth, 100))
	r.set("serve.queue_depth_mean", "jobs", mean(depth))
	r.set("serve.rejected", "count", float64(rejected-rejected0))
	r.set("serve.gen_late_ms", "ms", percentile(late, 100))

	p, err := probeLayers(env.corpus, env.nSmall, log)
	if err != nil {
		return err
	}
	p.report(r)
	// Residual: what a cold replay of a micro under every detector costs
	// beyond decoding, constructing and replaying.
	cold := env.latencies(open.all(), reqMiss, true)
	r.set("serve.residual_ms", "ms", median(cold)-p.smallAllMs())
	return env.verify(append(closed.all(), open.all()...), r)
}

// probes holds per-layer timings (ms) of the serve path's steps, taken
// by calling each layer directly on every corpus trace.
type probes struct {
	nSmall           int
	decode, validate []float64 // per trace
	ops              int
	newMs, runMs     map[string][]float64 // per detector, per trace
	decodeS          float64
}

func probeLayers(corpus []*entry, nSmall int, log *spanLog) (*probes, error) {
	p := &probes{nSmall: nSmall, newMs: map[string][]float64{}, runMs: map[string][]float64{}}
	for _, e := range corpus {
		root := log.op("bench.probe")
		sp := root.child("tracefile.decode")
		t0 := time.Now()
		rd, err := tracefile.NewReader(bytes.NewReader(e.raw))
		if err != nil {
			return nil, err
		}
		ops, err := replay.ReadAll(rd)
		if err != nil {
			return nil, err
		}
		dec := time.Since(t0)
		sp.end()
		p.decode = append(p.decode, ms(dec))
		p.decodeS += dec.Seconds()
		p.ops += len(ops)

		sp = root.child("serve.validate")
		t0 = time.Now()
		_, _, _, _, err = serve.Validate(bytes.NewReader(e.raw))
		p.validate = append(p.validate, ms(time.Since(t0)))
		sp.end()
		if err != nil {
			return nil, err
		}
		for _, name := range replay.TargetNames() {
			sp = root.child("detectors.new")
			t0 = time.Now()
			t, err := replay.TargetByName(name, rd.Header().Config)
			p.newMs[name] = append(p.newMs[name], ms(time.Since(t0)))
			sp.end()
			if err != nil {
				return nil, err
			}
			sp = root.child("replay.run")
			t0 = time.Now()
			_, err = replay.RunOps(rd.Header(), ops, t)
			p.runMs[name] = append(p.runMs[name], ms(time.Since(t0)))
			sp.end()
			if err != nil {
				return nil, err
			}
		}
		root.end()
	}
	return p, nil
}

func (p *probes) report(r *report) {
	r.set("tracefile.decode_ms", "ms", mean(p.decode[p.nSmall:]))
	r.set("tracefile.decode_ops_per_s", "ops/s", float64(p.ops)/p.decodeS)
	r.set("serve.validate_ms", "ms", mean(p.validate))
	for _, name := range replay.TargetNames() {
		r.set("replay.new_ms."+name, "ms", median(p.newMs[name]))
		r.set("replay.run_ms."+name, "ms", mean(p.runMs[name][p.nSmall:]))
	}
}

// smallAllMs is the compute a small trace's replay under every detector
// needs: decode, then construct and replay each detector.
func (p *probes) smallAllMs() float64 {
	t := median(p.decode[:p.nSmall])
	for _, name := range replay.TargetNames() {
		t += median(p.newMs[name]) + median(p.runMs[name][:p.nSmall])
	}
	return t
}
