package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"scord/internal/config"
	"scord/internal/gpu"
	"scord/internal/replay"
	"scord/internal/scor"
	"scord/internal/stats"
	"scord/internal/tracefile"
)

// The sim workload: the seven ScoR apps at their default sizes,
// correctly synchronized, simulated under ScoRD (ModeCached) one at a
// time through gpu.New and Benchmark.Run. Host time goes into the
// engine, the modelled memory system and the detector core; no trace
// is recorded or replayed.

// The sim latencies are host time per 1000 simulated warp instructions.
// UTS, GCON and GCOL simulate an amount of work that depends on the
// seed, so raw run times measure the seed as much as the simulator.
//
// p50 is the median over passes of a pass's host time per 1000 warp
// instructions. The tail is read from the apps' median costs weighted by
// their warp instructions: the cost per 1000 instructions at or below
// which simTailPct% of the simulated instructions ran, each app at its
// median run. It is GCON's median under every seed: GCOL and UTS, which
// cost less, hold 75–82% of the instructions, GCON 13–19%, and RED, 1DC
// and R110, whose runs lie beyond it, cost more. Both are built from
// medians and whole passes because single runs spread by a fifth to a
// quarter within a run, and a percentile of single runs moved with
// whichever run or app it fell on.
const simTailPct = 90

// warmApps are the short apps the sim set-up runs once each, so heap
// growth and first-touch page faults land before the timed passes.
var warmApps = []string{"MM", "RED", "1DC"}

// simSetupRepeats is how many times the sim workload sets up: its
// set-up takes a fifth of a second, so it takes more repeats than the
// others for a steady median.
const simSetupRepeats = 7

// appRun is one timed simulation.
type appRun struct {
	app           string
	newDur, total time.Duration
	instr         uint64
	races         int
	digest        uint64
	stats         stats.Stats
	phases        gpu.PhaseAccounts
}

// simulate builds a device and runs b on it, with sink attached when
// non-nil. The spans, when traced, are gpu.new and gpu.run under the
// operation's root.
func simulate(b scor.Benchmark, seed int64, sink gpu.OpSink, root *span) (appRun, error) {
	cfg := config.Default().WithDetector(config.ModeCached)
	cfg.Seed = seed
	t0 := time.Now()
	sp := root.child("gpu.new")
	d, err := gpu.New(cfg)
	sp.end()
	if err != nil {
		return appRun{}, err
	}
	tNew := time.Since(t0)
	if sink != nil {
		d.SetOpSink(sink)
	}
	sp = root.child("gpu.run")
	err = b.Run(d, nil)
	sp.end()
	total := time.Since(t0)
	if err != nil {
		return appRun{}, fmt.Errorf("%s: %w", b.Name(), err)
	}
	st := *d.Stats()
	ph := d.Phases()
	return appRun{
		app: b.Name(), newDur: tNew, total: total,
		instr: st.Instructions, races: len(d.Races()),
		digest: digest(&st, ph), stats: st, phases: ph,
	}, nil
}

// digest fingerprints every simulated counter and phase account.
func digest(st *stats.Stats, ph gpu.PhaseAccounts) uint64 {
	h := fnv.New64a()
	for _, f := range st.Fields() {
		fmt.Fprintf(h, "%s=%d;", f.Name, f.Value)
	}
	fmt.Fprintf(h, "%+v", ph)
	return h.Sum64()
}

// simPass runs the seven apps once. Each app's run is checked: Run
// returned nil (the app verified its own output), the clean app
// reported no race, and its counters match the first pass's.
func simPass(seed int64, r *report, first map[string]uint64, log *spanLog) []appRun {
	var runs []appRun
	for _, b := range scor.Apps() {
		root := log.op("bench.sim")
		run, err := simulate(b, seed, nil, root)
		root.end()
		if err != nil {
			r.check(err)
			continue
		}
		var cerr error
		switch want, seen := first[run.app]; {
		case run.races != 0:
			cerr = fmt.Errorf("sim %s: clean app reported %d races", run.app, run.races)
		case seen && want != run.digest:
			cerr = fmt.Errorf("sim %s: counters differ between passes", run.app)
		}
		if first != nil && cerr == nil {
			first[run.app] = run.digest
		}
		r.check(cerr)
		runs = append(runs, run)
	}
	return runs
}

func runSim(o opts, r *report) error {
	seed := simSeed(o.seed)
	_, setup, err := repeatSetup(simSetupRepeats, func() (struct{}, error) {
		for _, name := range warmApps {
			b, err := appByName(name)
			if err != nil {
				return struct{}{}, err
			}
			if _, err := simulate(b, seed, nil, nil); err != nil {
				return struct{}{}, err
			}
		}
		return struct{}{}, nil
	}, nil)
	if err != nil {
		return err
	}
	r.set("setup_s", "s", setup)

	first := map[string]uint64{}
	var passLat, newLat []float64    // ms per 1000 warp instructions of each pass; ms
	perApp := map[string][]float64{} // host seconds of each run
	instr := map[string]uint64{}     // warp instructions of one run
	start := time.Now()
	for {
		if _, n := simTail(perApp, instr); time.Since(start).Seconds() >= o.seconds && n >= minBeyond {
			break
		}
		runs := simPass(seed, r, first, nil)
		if len(runs) == 0 {
			return fmt.Errorf("sim: every app failed")
		}
		var passMs, passInstr float64
		for _, run := range runs {
			passMs += ms(run.total)
			passInstr += float64(run.instr)
			newLat = append(newLat, ms(run.newDur))
			perApp[run.app] = append(perApp[run.app], run.total.Seconds())
			instr[run.app] = run.instr
		}
		passLat = append(passLat, passMs/passInstr*1000)
	}
	// Throughput of the median pass: each app's median host time, so a
	// run the host stalled moves the figure little.
	var sumInstr uint64
	var sumS float64
	for app, ts := range perApp {
		sumInstr += instr[app]
		sumS += median(ts)
	}
	rate := float64(sumInstr) / sumS
	mb, err := deviceMB(seed)
	if err != nil {
		return err
	}
	r.set("retained_mb", "MB", mb)
	r.set("throughput_per_s", "1/s", rate)
	tail, beyondTail := simTail(perApp, instr)
	r.set("p50_ms", "ms", median(passLat))
	r.set("tail_ms", "ms", tail)
	r.set("aux_p50_ms", "ms", median(newLat))
	fmt.Printf("sim: %d passes, %d app runs; sim_instr_per_s=%.6g; p50 (median pass) and tail (instruction-weighted p%g of the apps' medians, %d runs beyond) are per 1000 warp instructions; aux is gpu.New\n",
		len(passLat), len(newLat), rate, float64(simTailPct), beyondTail)
	return nil
}

// simTail returns the sim tail, the instruction-weighted percentile of
// the apps' median host costs per 1000 warp instructions, and how many
// runs belong to apps that cost more.
func simTail(perApp map[string][]float64, instr map[string]uint64) (tail float64, beyond int) {
	cost := map[string]float64{}
	var costs []weighted
	for app, ts := range perApp {
		cost[app] = median(ts) * 1e6 / float64(instr[app])
		costs = append(costs, weighted{cost[app], float64(instr[app])})
	}
	tail = weightedPercentile(costs, simTailPct)
	for app, ts := range perApp {
		if cost[app] > tail {
			beyond += len(ts)
		}
	}
	return tail, beyond
}

// deviceMB is what the simulator holds for one app: the live heap while
// a device that has just run MM is still referenced. Between passes the
// workload holds almost nothing, so the heap after the timed phase would
// measure the runtime rather than the simulator.
func deviceMB(seed int64) (float64, error) {
	b, err := appByName("MM")
	if err != nil {
		return 0, err
	}
	cfg := config.Default().WithDetector(config.ModeCached)
	cfg.Seed = seed
	d, err := gpu.New(cfg)
	if err != nil {
		return 0, err
	}
	if err := b.Run(d, nil); err != nil {
		return 0, fmt.Errorf("%s: %w", b.Name(), err)
	}
	mb := retainedMB()
	runtime.KeepAlive(d)
	return mb, nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// profileRounds is how many times the traced run repeats its plain,
// recording and traced passes, alternating, to take medians.
const profileRounds = 3

// profileSim measures the engine/gpu, tracefile and core layers on the
// sim workload: plain passes alternating with passes that record every
// app's op stream and with traced passes, then a replay of the recorded
// streams through the ScoRD detector alone.
func profileSim(seed int64, r *report, log *spanLog) error {
	plain := map[string][]float64{}    // run seconds of each plain pass
	recorded := map[string][]float64{} // run seconds of each recording pass
	var newLat, passS, tracedS []float64
	var first []appRun
	var traces []*entry
	for round := 0; round < profileRounds; round++ {
		t0 := time.Now()
		runs := simPass(seed, r, nil, nil)
		passS = append(passS, time.Since(t0).Seconds())
		if round == 0 {
			first = runs
		}
		for _, run := range runs {
			plain[run.app] = append(plain[run.app], (run.total - run.newDur).Seconds())
			newLat = append(newLat, ms(run.newDur))
		}
		for _, b := range scor.Apps() {
			var buf bytes.Buffer
			cfg := config.Default().WithDetector(config.ModeCached)
			cfg.Seed = seed
			tw, err := tracefile.NewWriter(&buf, tracefile.NewHeader(b.Name(), nil, cfg))
			if err != nil {
				return err
			}
			run, err := simulate(b, seed, tw, nil)
			if err != nil {
				return err
			}
			if err := tw.Close(); err != nil {
				return err
			}
			recorded[run.app] = append(recorded[run.app], (run.total - run.newDur).Seconds())
			if round == 0 {
				traces = append(traces, &entry{name: b.Name(), raw: buf.Bytes(), h: tw.Header()})
			}
		}
		t0 = time.Now()
		simPass(seed, r, nil, log)
		tracedS = append(tracedS, time.Since(t0).Seconds())
	}

	if len(first) != len(traces) {
		return fmt.Errorf("sim: %d of %d apps ran", len(first), len(traces))
	}

	var total stats.Stats
	var ph gpu.PhaseAccounts
	var plainS, recordS float64
	for _, run := range first {
		total.Add(&run.stats)
		ph = addPhases(ph, run.phases)
		p := median(plain[run.app])
		plainS += p
		recordS += median(recorded[run.app]) - p
		r.set("gpu.run_s."+run.app, "s", p)
	}
	r.set("gpu.new_ms", "ms", median(newLat))
	r.set("gpu.host_ns_per_instr", "ns", plainS*1e9/float64(total.Instructions))
	r.set("tracefile.record_overhead_s", "s", recordS)
	r.set("tracing.overhead_pct.sim", "%", (median(tracedS)/median(passS)-1)*100)
	setSimCounters(r, &total, ph)

	// The detector's share: replay each recorded stream through ScoRD.
	var replayS float64
	for i, e := range traces {
		if err := e.load(); err != nil {
			return err
		}
		traces[i] = nil // one decoded stream in memory at a time
		root := log.op("bench.sim-replay")
		sp := root.child("core.replay")
		t0 := time.Now()
		sc, err := replay.NewScoRD(e.h.Config)
		if err != nil {
			return err
		}
		res, err := replay.RunOps(e.h, e.ops, sc)
		replayS += time.Since(t0).Seconds()
		sp.end()
		root.end()
		if err == nil && len(res.Races) != first[i].races {
			err = fmt.Errorf("sim replay %s: %d races, live run had %d", e.name, len(res.Races), first[i].races)
		}
		r.check(err)
	}
	r.set("core.replay_s.sim", "s", replayS)
	return nil
}

func addPhases(a, b gpu.PhaseAccounts) gpu.PhaseAccounts {
	return gpu.PhaseAccounts{
		Issue: a.Issue + b.Issue, Fence: a.Fence + b.Fence, Barrier: a.Barrier + b.Barrier,
		L1: a.L1 + b.L1, NOC: a.NOC + b.NOC, L2: a.L2 + b.L2, DRAM: a.DRAM + b.DRAM,
		DetectorMeta: a.DetectorMeta + b.DetectorMeta, DetectorStall: a.DetectorStall + b.DetectorStall,
	}
}

// setSimCounters reports the exact simulated counters of one pass.
func setSimCounters(r *report, st *stats.Stats, ph gpu.PhaseAccounts) {
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	r.set("sim.cycles", "cycles", float64(st.Cycles))
	r.set("sim.instructions", "count", float64(st.Instructions))
	r.set("sim.memops", "count", float64(st.MemOps))
	r.set("cache.l1_hit_rate", "fraction", ratio(st.L1Hits, st.L1Accesses))
	r.set("cache.l2_data_miss_rate", "fraction", ratio(st.L2DataMisses, st.L2DataAccesses))
	r.set("cache.l2_meta_miss_rate", "fraction", ratio(st.L2MetaMisses, st.L2MetaAccesses))
	r.set("dram.data_accesses", "count", float64(st.DRAMDataAccesses))
	r.set("dram.meta_accesses", "count", float64(st.DRAMMetaAccesses))
	r.set("noc.flits", "count", float64(st.NOCFlits))
	r.set("noc.extra_flits", "count", float64(st.NOCExtraFlits))
	r.set("core.checks", "count", float64(st.DetectorChecks))
	r.set("core.prelim_ok_ratio", "fraction", ratio(st.DetectorPrelimOK, st.DetectorChecks))
	r.set("core.stall_cycles", "cycles", float64(st.DetectorStalls))
	r.set("core.meta_evicts", "count", float64(st.MetaCacheEvicts))
	for _, a := range []struct {
		name string
		v    uint64
	}{
		{"issue", ph.Issue}, {"fence", ph.Fence}, {"barrier", ph.Barrier},
		{"l1", ph.L1}, {"noc", ph.NOC}, {"l2", ph.L2}, {"dram", ph.DRAM},
		{"det-meta", ph.DetectorMeta}, {"det-stall", ph.DetectorStall},
	} {
		r.set("phase."+a.name, "cycles", float64(a.v))
	}
}
